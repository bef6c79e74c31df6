//! Real-file persistence in the paper's 1 KB pages.
//!
//! A page file is a 14-byte header — magic, then the page count — and,
//! per page, an 8-byte checksum and the 1 KB page. [`PageWriter`] cuts a
//! byte stream of a length it is told up front into pages and appends
//! them through an [`Io`] in 64 KiB writes; `PageReader` checks the
//! header's count against the file's length before it reads a page, and
//! each page's checksum before it hands the page out. Neither holds more
//! than that one buffer, whatever the file's size: checkpoints
//! ([`crate::checkpoint`]) stream through them. The GeoSIR prototype
//! "uses external storage for the shape base and the auxiliary data
//! structures" — this is the restart path.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use crate::disk::BLOCK_SIZE;
use crate::faults::{Io, IoFactory};

/// File header magic: "GSIR" + format version.
const MAGIC: [u8; 6] = *b"GSIR\x00\x01";
/// Magic, then the page count.
const HEADER: u64 = MAGIC.len() as u64 + 8;
/// One page on disk: its checksum, then its bytes.
const PAGE_RECORD: u64 = 8 + BLOCK_SIZE as u64;
/// What the writer gathers per append, and the reader buffers per read.
const IO_CHUNK: usize = 64 * 1024;

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    Io(io::Error),
    /// Not a GeoSIR page file, or an unsupported version.
    BadMagic,
    /// A page failed its checksum (its index), a file runs past its
    /// header's page count (the count), or a checksummed stream does not
    /// decode (0).
    Corrupt(usize),
    /// The file ends before the pages (or the stream) its header declares.
    Truncated,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::BadMagic => write!(f, "not a GeoSIR page file"),
            PersistError::Corrupt(b) => write!(f, "corrupt page {b}"),
            PersistError::Truncated => write!(f, "file truncated mid-page"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// FNV-1a, good enough to catch torn writes and bit rot.
fn checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Writes a page file holding a stream of exactly `len` bytes, zero
/// padded to its last page.
pub struct PageWriter {
    io: Box<dyn Io>,
    /// Sealed pages (and at first the header) not yet appended.
    out: Vec<u8>,
    /// The open page and how much of it is filled.
    page: [u8; BLOCK_SIZE],
    fill: usize,
    /// Stream bytes still to come.
    left: u64,
}

impl PageWriter {
    /// Create `path` through `io` for a stream of `len` bytes
    /// (`⌈len / 1 KB⌉` pages).
    pub fn create(io: &dyn IoFactory, path: &Path, len: u64) -> io::Result<PageWriter> {
        let mut out = Vec::with_capacity(IO_CHUNK);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&len.div_ceil(BLOCK_SIZE as u64).to_le_bytes());
        Ok(PageWriter { io: io.create(path)?, out, page: [0; BLOCK_SIZE], fill: 0, left: len })
    }

    /// Append the stream's next `bytes`.
    pub fn write(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        if bytes.len() as u64 > self.left {
            return Err(io::Error::other("page stream longer than declared"));
        }
        self.left -= bytes.len() as u64;
        while !bytes.is_empty() {
            let n = bytes.len().min(BLOCK_SIZE - self.fill);
            self.page[self.fill..self.fill + n].copy_from_slice(&bytes[..n]);
            self.fill += n;
            bytes = &bytes[n..];
            if self.fill == BLOCK_SIZE {
                self.seal()?;
            }
        }
        Ok(())
    }

    /// Checksum the open page into the write buffer, appending the
    /// buffer first if the page would not fit.
    fn seal(&mut self) -> io::Result<()> {
        self.page[self.fill..].fill(0);
        if self.out.len() + PAGE_RECORD as usize > IO_CHUNK {
            self.io.append(&self.out)?;
            self.out.clear();
        }
        self.out.extend_from_slice(&checksum(&self.page).to_le_bytes());
        self.out.extend_from_slice(&self.page);
        self.fill = 0;
        Ok(())
    }

    /// Pad and seal the last page, append what is buffered, and sync
    /// (`Io::sync`, an fdatasync on real files, which also makes the new
    /// file's length durable): a finished file survives power loss, and
    /// the checkpointer renames it into place only after this.
    pub fn finish(mut self) -> io::Result<()> {
        if self.left > 0 {
            return Err(io::Error::other("page stream shorter than declared"));
        }
        if self.fill > 0 {
            self.seal()?;
        }
        self.io.append(&self.out)?;
        self.io.sync()
    }
}

/// Reads a page file's pages in order, each checked against its
/// checksum before the caller sees a byte of it.
pub(crate) struct PageReader {
    file: BufReader<File>,
    pages: usize,
    next: usize,
}

impl PageReader {
    /// Open `path` and check its header: the magic, then a page count
    /// that matches the file's length — before any page is read, so a
    /// hostile count is an error, never an allocation.
    pub(crate) fn open(path: &Path) -> Result<PageReader, PersistError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut file = BufReader::with_capacity(IO_CHUNK, file);
        let mut magic = [0u8; MAGIC.len()];
        file.read_exact(&mut magic).map_err(|_| PersistError::BadMagic)?;
        if magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let mut count = [0u8; 8];
        file.read_exact(&mut count).map_err(|_| PersistError::Truncated)?;
        let count = u64::from_le_bytes(count);
        match count.checked_mul(PAGE_RECORD).and_then(|b| b.checked_add(HEADER)) {
            Some(want) if want == len => {}
            Some(want) if want < len => return Err(PersistError::Corrupt(count as usize)),
            _ => return Err(PersistError::Truncated),
        }
        Ok(PageReader { file, pages: count as usize, next: 0 })
    }

    /// Pages the file holds.
    pub(crate) fn pages(&self) -> usize {
        self.pages
    }

    /// Read the next page into `page`, its checksum checked; `false`
    /// after the last.
    pub(crate) fn next_page(
        &mut self,
        page: &mut [u8; BLOCK_SIZE],
    ) -> Result<bool, PersistError> {
        if self.next == self.pages {
            return Ok(false);
        }
        let mut sum = [0u8; 8];
        self.file.read_exact(&mut sum).map_err(|_| PersistError::Truncated)?;
        self.file.read_exact(page).map_err(|_| PersistError::Truncated)?;
        if checksum(page) != u64::from_le_bytes(sum) {
            return Err(PersistError::Corrupt(self.next));
        }
        self.next += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FileFactory;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("geosir-test-{}-{name}", std::process::id()));
        p
    }

    type Page = [u8; BLOCK_SIZE];

    fn dump(pages: &[Page], path: &Path) {
        let len = (pages.len() * BLOCK_SIZE) as u64;
        let mut w = PageWriter::create(&FileFactory, path, len).unwrap();
        for p in pages {
            w.write(p).unwrap();
        }
        w.finish().unwrap();
    }

    fn load(path: &Path) -> Result<Vec<Page>, PersistError> {
        let mut r = PageReader::open(path)?;
        let (mut out, mut page) = (Vec::new(), [0u8; BLOCK_SIZE]);
        while r.next_page(&mut page)? {
            out.push(page);
        }
        Ok(out)
    }

    fn sample_pages() -> Vec<Page> {
        (0..7)
            .map(|b| {
                let mut page = [0u8; BLOCK_SIZE];
                for (i, byte) in page.iter_mut().take(200).enumerate() {
                    *byte = ((b * 37 + i) % 251) as u8;
                }
                page
            })
            .collect()
    }

    #[test]
    fn dump_load_round_trip() {
        let path = tmp("roundtrip");
        let pages = sample_pages();
        dump(&pages, &path);
        assert_eq!(load(&path).unwrap(), pages);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_detected() {
        let path = tmp("corrupt");
        dump(&sample_pages(), &path);
        // flip a byte inside page 3's payload
        let mut bytes = std::fs::read(&path).unwrap();
        let off = HEADER as usize + 3 * PAGE_RECORD as usize + 8 + 100;
        bytes[off] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match load(&path) {
            Err(PersistError::Corrupt(3)) => {}
            other => panic!("expected Corrupt(3), got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_detected() {
        let path = tmp("truncated");
        dump(&sample_pages(), &path);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
        assert!(matches!(load(&path), Err(PersistError::Truncated)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"definitely not a block image").unwrap();
        assert!(matches!(load(&path), Err(PersistError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_image_round_trips() {
        // a zero-page stream must write and read back
        let path = tmp("empty");
        dump(&[], &path);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER);
        assert!(load(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A header that claims more pages than the file holds is refused
    /// before a page is read — 2⁴⁰ pages in a 14-byte file is
    /// `Truncated`, not an attempt to allocate them — and a file longer
    /// than its count is `Corrupt`.
    #[test]
    fn hostile_page_count_is_refused_before_a_page_is_read() {
        let path = tmp("hostile-count");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(PageReader::open(&path), Err(PersistError::Truncated)));
        bytes[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(PageReader::open(&path), Err(PersistError::Truncated)));

        dump(&sample_pages(), &path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0; 8]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(PageReader::open(&path), Err(PersistError::Corrupt(7))));
        std::fs::remove_file(&path).ok();
    }

    /// A stream of any length pads only its last page, and the writer
    /// refuses a stream that is longer or shorter than it declared.
    #[test]
    fn writer_pads_the_last_page_and_holds_the_declared_length() {
        let path = tmp("padded");
        let stream: Vec<u8> = (0..2500u32).map(|i| (i % 253) as u8 + 1).collect();
        let mut w = PageWriter::create(&FileFactory, &path, stream.len() as u64).unwrap();
        for chunk in stream.chunks(333) {
            w.write(chunk).unwrap();
        }
        w.finish().unwrap();
        let pages = load(&path).unwrap();
        assert_eq!(pages.len(), 3);
        assert_eq!(&pages.concat()[..stream.len()], &stream[..]);
        assert!(pages[2][2500 - 2 * BLOCK_SIZE..].iter().all(|&b| b == 0));

        let mut w = PageWriter::create(&FileFactory, &path, 10).unwrap();
        assert!(w.write(&[1; 11]).is_err());
        w.write(&[1; 9]).unwrap();
        assert!(w.finish().is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Pages reach the `Io` in appends of at most 64 KiB, not one or two
    /// per page.
    #[test]
    fn pages_are_appended_in_64_kib_writes() {
        use std::sync::{Arc, Mutex};
        struct Sizes(Arc<Mutex<Vec<usize>>>);
        impl Io for Sizes {
            fn append(&mut self, buf: &[u8]) -> io::Result<()> {
                self.0.lock().unwrap().push(buf.len());
                Ok(())
            }
            fn sync(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        struct Factory(Arc<Mutex<Vec<usize>>>);
        impl IoFactory for Factory {
            fn create(&self, _: &Path) -> io::Result<Box<dyn Io>> {
                Ok(Box::new(Sizes(self.0.clone())))
            }
        }
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let pages = 200u64;
        let len = pages * BLOCK_SIZE as u64;
        let mut w = PageWriter::create(&Factory(sizes.clone()), &tmp("unused"), len).unwrap();
        for _ in 0..pages {
            w.write(&[7; BLOCK_SIZE]).unwrap();
        }
        w.finish().unwrap();
        let sizes = sizes.lock().unwrap();
        assert_eq!(sizes.iter().sum::<usize>() as u64, HEADER + pages * PAGE_RECORD);
        assert!(sizes.iter().all(|&s| s <= IO_CHUNK), "{sizes:?}");
        assert_eq!(sizes.len(), 4, "{sizes:?}");
    }

    /// A shape store's block image — several 1 KB blocks of records —
    /// round-trips; a flipped payload byte surfaces as `Corrupt`, never
    /// as silently garbled shapes.
    fn store_pages(shapes: u32) -> Vec<Page> {
        use geosir_core::hashing::GeometricHash;
        use geosir_core::ids::ImageId;
        use geosir_core::shapebase::ShapeBaseBuilder;
        use geosir_geom::rangesearch::Backend;
        use geosir_geom::{Point, Polyline};

        let mut b = ShapeBaseBuilder::new();
        for i in 0..shapes {
            let pts = vec![
                Point::new(0.0, 0.0),
                Point::new(3.0 + i as f64 * 0.05, 0.2),
                Point::new(1.5, 2.0 + (i % 7) as f64 * 0.1),
            ];
            b.add_shape(ImageId(i), Polyline::closed(pts).unwrap());
        }
        let base = b.build(0.0, Backend::KdTree);
        let gh = GeometricHash::build(&base, 50);
        let sigs: Vec<_> = base.copies().map(|(_, c)| gh.signature(&c.normalized)).collect();
        let store =
            crate::store::ShapeStore::build(&base, &sigs, crate::layout::LayoutPolicy::MeanCurve);
        (0..store.disk().num_blocks()).map(|b| store.disk().read(b)).collect()
    }

    #[test]
    fn multi_page_base_round_trips_and_flipped_byte_is_checksum_error() {
        let pages = store_pages(40);
        assert!(pages.len() > 1, "need a multi-page base for this test");
        let path = tmp("multipage");
        dump(&pages, &path);
        assert_eq!(load(&path).unwrap(), pages);

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(load(&path), Err(PersistError::Corrupt(_))),
            "flipped byte must be a checksum error, not garbage shapes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_survives_restart() {
        // a shape store's pages written and read back serve the same
        // records
        let path = tmp("restart");
        dump(&store_pages(10), &path);
        let mut r = PageReader::open(&path).unwrap();
        let mut page = [0u8; BLOCK_SIZE];
        assert!(r.next_page(&mut page).unwrap());
        let rec = crate::record::ShapeRecord::decode(&page[..]).unwrap();
        assert_eq!(rec.points.len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
