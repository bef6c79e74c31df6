//! Grayscale rasters and polygon rasterization.

use geosir_geom::Polyline;

/// A row-major 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raster {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Raster {
    pub fn new(width: usize, height: usize) -> Self {
        Raster { width, height, data: vec![0; width * height] }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }

    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Fill a closed polygon with `value` using even-odd scanline filling.
    /// Coordinates are in pixel units; the polygon may extend outside the
    /// raster (it is clipped).
    pub fn fill_polygon(&mut self, poly: &Polyline, value: u8) {
        assert!(poly.is_closed(), "fill needs a closed polygon");
        let pts = poly.points();
        let n = pts.len();
        let y_min = pts.iter().map(|p| p.y).fold(f64::INFINITY, f64::min).floor().max(0.0) as usize;
        let y_max = pts
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max)
            .ceil()
            .min(self.height as f64 - 1.0) as usize;
        let mut xs: Vec<f64> = Vec::with_capacity(8);
        for y in y_min..=y_max {
            let yc = y as f64 + 0.5; // sample at the pixel center
            xs.clear();
            for i in 0..n {
                let (a, b) = (pts[i], pts[(i + 1) % n]);
                if (a.y > yc) != (b.y > yc) {
                    xs.push(a.x + (yc - a.y) / (b.y - a.y) * (b.x - a.x));
                }
            }
            xs.sort_by(|p, q| p.partial_cmp(q).unwrap());
            for pair in xs.chunks_exact(2) {
                let x0 = pair[0].ceil().max(0.0) as usize;
                let x1 = pair[1].floor().min(self.width as f64 - 1.0);
                if x1 < 0.0 {
                    continue;
                }
                for x in x0..=(x1 as usize) {
                    self.set(x, y, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_geom::Point;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square(cx: f64, cy: f64, half: f64) -> Polyline {
        Polyline::closed(vec![
            p(cx - half, cy - half),
            p(cx + half, cy - half),
            p(cx + half, cy + half),
            p(cx - half, cy + half),
        ])
        .unwrap()
    }

    #[test]
    fn fill_square_area() {
        let mut r = Raster::new(64, 64);
        r.fill_polygon(&square(32.0, 32.0, 10.0), 200);
        let filled = r.pixels().iter().filter(|&&v| v == 200).count();
        // a 20×20 square ⇒ ~400 pixels (scanline sampling gives ±1 rows)
        assert!((filled as i64 - 400).abs() <= 40, "filled {filled}");
        assert_eq!(r.get(32, 32), 200);
        assert_eq!(r.get(1, 1), 0);
    }

    #[test]
    fn fill_clips_to_bounds() {
        let mut r = Raster::new(16, 16);
        r.fill_polygon(&square(0.0, 0.0, 10.0), 99); // mostly off-image
        assert!(r.pixels().contains(&99));
        assert_eq!(r.get(15, 15), 0);
    }

    #[test]
    fn fill_concave() {
        // L-shape: the notch must stay empty
        let l = Polyline::closed(vec![
            p(4.0, 4.0),
            p(28.0, 4.0),
            p(28.0, 12.0),
            p(14.0, 12.0),
            p(14.0, 28.0),
            p(4.0, 28.0),
        ])
        .unwrap();
        let mut r = Raster::new(32, 32);
        r.fill_polygon(&l, 77);
        assert_eq!(r.get(8, 8), 77);
        assert_eq!(r.get(20, 8), 77);
        assert_eq!(r.get(8, 20), 77);
        assert_eq!(r.get(22, 22), 0, "notch must stay empty");
    }
}
