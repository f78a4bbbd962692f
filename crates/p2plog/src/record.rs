//! The unit stored in the P2P-Log: one timestamped patch, self-verifying.

use bytes::Bytes;

/// A timestamped patch as stored at the Log-Peers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Document name (the reconciliation key).
    pub doc: String,
    /// The continuous timestamp assigned by the Master-key peer.
    pub ts: u64,
    /// Author site id.
    pub author: u64,
    /// The encoded patch body (see `ot::encode_patch`).
    pub patch: Bytes,
    /// The master epoch the grant was issued under. Masters stamp epoch
    /// 1 or higher; 0 is an unstamped record, which encodes to (and
    /// decodes from) the byte layout without the epoch field.
    pub epoch: u64,
}

/// Errors decoding a log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Byte stream too short / malformed.
    Truncated,
    /// Checksum mismatch (corruption or tampering).
    BadChecksum,
    /// Document name is not UTF-8.
    BadName,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "truncated log record"),
            RecordError::BadChecksum => write!(f, "log record checksum mismatch"),
            RecordError::BadName => write!(f, "log record document name not utf-8"),
        }
    }
}

impl std::error::Error for RecordError {}

fn fnv64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xff; // chunk separator
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl LogRecord {
    /// Build a legacy (epoch-0) record.
    pub fn new(doc: impl Into<String>, ts: u64, author: u64, patch: Bytes) -> Self {
        LogRecord {
            doc: doc.into(),
            ts,
            author,
            patch,
            epoch: 0,
        }
    }

    /// Stamp the record with the granting master's epoch (fenced mode).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    fn checksum(&self) -> u64 {
        // The epoch chunk participates only when present on the wire
        // (epoch > 0) so epoch-0 records keep their legacy checksums.
        let ts = self.ts.to_le_bytes();
        let author = self.author.to_le_bytes();
        let epoch = self.epoch.to_le_bytes();
        let chunks: [&[u8]; 5] = [self.doc.as_bytes(), &ts, &author, &self.patch, &epoch];
        fnv64(&chunks[..if self.epoch > 0 { 5 } else { 4 }])
    }

    /// Serialize with a trailing checksum.
    ///
    /// Legacy layout (epoch 0): u32 doc_len | doc | u64 ts | u64 author |
    /// u32 patch_len | patch | u64 checksum (all little-endian).
    ///
    /// Epoch-stamped layout (epoch > 0): [`chord::RANK_MAGIC`] | u64 epoch
    /// | legacy body — the epoch prefix doubles as the storage-arbitration
    /// rank ([`chord::value_rank`]), and the checksum additionally covers
    /// the epoch.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.doc.len() + self.patch.len() + 52);
        if self.epoch > 0 {
            out.extend_from_slice(&chord::RANK_MAGIC);
            out.extend_from_slice(&self.epoch.to_le_bytes());
        }
        out.extend_from_slice(&(self.doc.len() as u32).to_le_bytes());
        out.extend_from_slice(self.doc.as_bytes());
        out.extend_from_slice(&self.ts.to_le_bytes());
        out.extend_from_slice(&self.author.to_le_bytes());
        out.extend_from_slice(&(self.patch.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.patch);
        out.extend_from_slice(&self.checksum().to_le_bytes());
        Bytes::from(out)
    }

    /// Parse and verify a record (either layout).
    pub fn decode(buf: &[u8]) -> Result<LogRecord, RecordError> {
        let (epoch, buf) = if buf.len() >= 12 && buf[..4] == chord::RANK_MAGIC {
            let epoch = u64::from_le_bytes(buf[4..12].try_into().expect("4..12 is 8 bytes"));
            (epoch, &buf[12..])
        } else {
            (0, buf)
        };
        let need = |at: usize, n: usize| -> Result<(), RecordError> {
            if at + n > buf.len() {
                Err(RecordError::Truncated)
            } else {
                Ok(())
            }
        };
        let mut at = 0usize;
        need(at, 4)?;
        let doc_len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        need(at, doc_len)?;
        let doc = std::str::from_utf8(&buf[at..at + doc_len])
            .map_err(|_| RecordError::BadName)?
            .to_owned();
        at += doc_len;
        need(at, 8)?;
        let ts = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        at += 8;
        need(at, 8)?;
        let author = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        at += 8;
        need(at, 4)?;
        let patch_len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        need(at, patch_len)?;
        let patch = Bytes::copy_from_slice(&buf[at..at + patch_len]);
        at += patch_len;
        need(at, 8)?;
        let stored_sum = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        at += 8;
        if at != buf.len() {
            return Err(RecordError::Truncated);
        }
        let rec = LogRecord {
            doc,
            ts,
            author,
            patch,
            epoch,
        };
        if rec.checksum() != stored_sum {
            return Err(RecordError::BadChecksum);
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogRecord {
        LogRecord::new("wiki/Main", 42, 7, Bytes::from_static(b"patchbytes"))
    }

    #[test]
    fn roundtrip() {
        let r = sample();
        assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn detects_corruption_anywhere() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x01;
            assert!(
                LogRecord::decode(&bad).is_err(),
                "bit flip at {i} undetected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(LogRecord::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn empty_patch_ok() {
        let r = LogRecord::new("d", 1, 1, Bytes::new());
        assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn unicode_doc_name() {
        let r = LogRecord::new("página/Ωλ", 1, 1, Bytes::from_static(b"x"));
        assert_eq!(LogRecord::decode(&r.encode()).unwrap().doc, "página/Ωλ");
    }

    #[test]
    fn epoch_roundtrips_and_ranks() {
        let r = sample().with_epoch(5);
        let bytes = r.encode();
        assert_eq!(chord::value_rank(&bytes), 5);
        assert_eq!(LogRecord::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn epoch_zero_is_byte_identical_to_legacy() {
        let r = sample();
        let bytes = r.encode();
        assert_eq!(chord::value_rank(&bytes), 0);
        assert!(!bytes.starts_with(&chord::RANK_MAGIC));
        // The with_epoch(0) spelling changes nothing.
        assert_eq!(sample().with_epoch(0).encode(), bytes);
    }

    #[test]
    fn epoch_record_detects_corruption_anywhere() {
        let bytes = sample().with_epoch(9).encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x01;
            assert!(
                LogRecord::decode(&bad).is_err(),
                "bit flip at {i} undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(LogRecord::decode(&bytes[..cut]).is_err());
        }
    }
}
