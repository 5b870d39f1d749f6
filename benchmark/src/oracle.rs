//! The correctness oracle: what every object must hold.
//!
//! An object's payload is one fill byte repeated, with the object's index
//! stamped over the first four bytes. The shadow table holds the last
//! acknowledged fill per object; every read is checked against it.

use crate::gen::initial_fill;

const STAMP: usize = 4;

/// A fill the shadow cannot vouch for: a write to the object failed, so
/// it may hold the old or the new bytes until the next acknowledged write.
const UNKNOWN: u16 = 256;

/// Writes the payload a write of `fill` to object `key` stores.
pub fn fill_payload(buf: &mut [u8], key: u32, fill: u8) {
    buf.fill(fill);
    buf[..STAMP].copy_from_slice(&key.to_le_bytes());
}

#[derive(Debug)]
pub struct Shadow {
    fills: Vec<u16>,
}

impl Shadow {
    /// The table after populate: every object holds its initial fill.
    pub fn populated(objects: u32) -> Self {
        Shadow {
            fills: (0..objects).map(|k| u16::from(initial_fill(k))).collect(),
        }
    }

    pub fn acknowledged(&mut self, key: u32, fill: u8) {
        self.fills[key as usize] = u16::from(fill);
    }

    pub fn write_failed(&mut self, key: u32) {
        self.fills[key as usize] = UNKNOWN;
    }

    /// Whether `buf`, read from object `key`, is what the last
    /// acknowledged write stored.
    pub fn matches(&self, key: u32, buf: &[u8]) -> bool {
        if buf[..STAMP] != key.to_le_bytes() {
            return false;
        }
        match self.fills[key as usize] {
            UNKNOWN => {
                let first = buf[STAMP];
                buf[STAMP..].iter().all(|&b| b == first)
            }
            fill => buf[STAMP..].iter().all(|&b| u16::from(b) == fill),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_follows_acknowledged_writes() {
        let mut shadow = Shadow::populated(8);
        let mut buf = vec![0u8; 64];
        fill_payload(&mut buf, 3, initial_fill(3));
        assert!(shadow.matches(3, &buf));
        assert!(!shadow.matches(4, &buf), "stamp of another object");
        fill_payload(&mut buf, 3, 0xAB);
        assert!(!shadow.matches(3, &buf), "unacknowledged fill");
        shadow.acknowledged(3, 0xAB);
        assert!(shadow.matches(3, &buf));
        buf[40] ^= 1;
        assert!(!shadow.matches(3, &buf), "one torn byte");
    }

    #[test]
    fn failed_write_accepts_either_whole_value_but_not_a_torn_one() {
        let mut shadow = Shadow::populated(2);
        shadow.write_failed(1);
        let mut buf = vec![0u8; 32];
        fill_payload(&mut buf, 1, 9);
        assert!(shadow.matches(1, &buf));
        fill_payload(&mut buf, 1, 10);
        assert!(shadow.matches(1, &buf));
        buf[20] = 9;
        assert!(!shadow.matches(1, &buf));
        shadow.acknowledged(1, 10);
        buf[20] = 10;
        assert!(shadow.matches(1, &buf));
    }
}
