//! The durability manifest: which checkpoint is current, and where the
//! WAL tail begins.
//!
//! A single small file, `MANIFEST`, always replaced atomically (write
//! `MANIFEST.tmp`, fsync, rename, fsync dir) so a crash never leaves a
//! half-written manifest: recovery sees either the old one or the new
//! one. The payload carries its own checksum; a flipped byte is a
//! [`PersistError::Corrupt`], never silently wrong recovery input.
//!
//! ```text
//! magic          6 bytes  "GSMF" 0 1
//! name_len       u32 LE
//! checkpoint     name_len bytes (file name within the data dir)
//! last_lsn       u64 LE   records ≤ this are inside the checkpoint
//! epoch          u64 LE   base epoch at checkpoint time
//! crc            u32 LE   CRC-32 over everything above
//! ```

use std::path::Path;

use bytes::{Buf, BufMut};

use crate::file_disk::PersistError;
use crate::wal::{crc32, sync_dir, Lsn};

const MAGIC: [u8; 6] = *b"GSMF\x00\x01";

/// File name of the manifest inside a data directory.
const MANIFEST_FILE: &str = "MANIFEST";

/// The recovery root: everything restart needs to find its state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint file name (relative to the data dir); empty when no
    /// checkpoint has been taken yet (recover from the WAL alone).
    pub checkpoint: String,
    /// Records with LSN ≤ this are contained in the checkpoint; replay
    /// starts after it.
    pub last_lsn: Lsn,
    /// Base epoch captured by the checkpoint.
    pub epoch: u64,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.put_slice(&MAGIC);
        out.put_u32_le(self.checkpoint.len() as u32);
        out.put_slice(self.checkpoint.as_bytes());
        out.put_u64_le(self.last_lsn);
        out.put_u64_le(self.epoch);
        let crc = crc32(&out);
        out.put_u32_le(crc);
        out
    }

    fn decode(mut buf: &[u8]) -> Result<Manifest, PersistError> {
        let full = buf;
        let buf = &mut buf;
        if buf.len() < MAGIC.len() + 4 {
            return Err(PersistError::Truncated);
        }
        if full[..MAGIC.len()] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        buf.advance(MAGIC.len());
        let name_len = buf.get_u32_le() as usize;
        if buf.len() < name_len + 8 + 8 + 4 {
            return Err(PersistError::Truncated);
        }
        let body_len = MAGIC.len() + 4 + name_len + 16;
        let stored = u32::from_le_bytes(full[body_len..body_len + 4].try_into().unwrap());
        if crc32(&full[..body_len]) != stored {
            return Err(PersistError::Corrupt(0));
        }
        let checkpoint = std::str::from_utf8(&buf[..name_len])
            .map_err(|_| PersistError::Corrupt(0))?
            .to_string();
        buf.advance(name_len);
        let last_lsn = buf.get_u64_le();
        let epoch = buf.get_u64_le();
        Ok(Manifest { checkpoint, last_lsn, epoch })
    }

    /// Atomically install this manifest as `dir/MANIFEST`.
    pub fn store(&self, dir: &Path) -> Result<(), PersistError> {
        let tmp = dir.join("MANIFEST.tmp");
        let target = dir.join(MANIFEST_FILE);
        {
            let mut f = std::fs::File::create(&tmp)?;
            use std::io::Write as _;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &target)?;
        sync_dir(dir);
        Ok(())
    }

    /// Load `dir/MANIFEST`; `Ok(None)` when none exists (fresh dir).
    pub fn load(dir: &Path) -> Result<Option<Manifest>, PersistError> {
        let path = dir.join(MANIFEST_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = std::fs::read(&path)?;
        Manifest::decode(&bytes).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("geosir-manifest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn store_load_round_trip() {
        let dir = tmpdir("roundtrip");
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let m = Manifest { checkpoint: "checkpoint-17.gsir".into(), last_lsn: 17, epoch: 23 };
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m.clone()));
        // replacement is atomic: the tmp file must not linger
        let m2 = Manifest { checkpoint: "checkpoint-40.gsir".into(), last_lsn: 40, epoch: 61 };
        m2.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m2));
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_is_corrupt_not_garbage() {
        let dir = tmpdir("flip");
        Manifest { checkpoint: "checkpoint-9.gsir".into(), last_lsn: 9, epoch: 12 }
            .store(&dir)
            .unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(PersistError::Corrupt(_) | PersistError::BadMagic)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_manifest_rejected() {
        let dir = tmpdir("trunc");
        Manifest { checkpoint: "c".into(), last_lsn: 1, epoch: 1 }.store(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(matches!(Manifest::load(&dir), Err(PersistError::Truncated)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
