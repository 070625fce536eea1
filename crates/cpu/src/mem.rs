//! Sparse functional memory.
//!
//! The simulator is execution-driven: programs read and write real values.
//! [`Memory`] is a paged sparse byte store — only touched 4 KiB pages are
//! allocated, so workloads can spread accesses across gigabyte-scale
//! address ranges (to generate cache misses) without host memory cost.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Hashes a page number with one multiply and a fold of the high half
/// into the low half (the table indexes buckets by the low bits, so
/// power-of-two page strides must still spread). Every functional load
/// and store looks its page up, and nothing depends on the table's
/// order — [`Memory::digest`] XOR-folds pages and `pack` sorts them — so
/// a fixed hasher replaces the seeded SipHash default. Its collision
/// resistance buys nothing here: page numbers come from the simulated
/// program, and a program that collides them only slows its own run.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

type PageTable = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// Sparse, byte-addressable memory. Unwritten locations read as zero.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: PageTable,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: whole access within one page.
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + N <= PAGE_SIZE {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                out.copy_from_slice(&page[offset..offset + N]);
            }
            return out;
        }
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + bytes.len() <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[offset..offset + bytes.len()].copy_from_slice(bytes);
            return;
        }
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an IEEE double.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an IEEE double.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Loads a byte image at `addr` (used for program data segments).
    pub fn load(&mut self, addr: u64, bytes: &[u8]) {
        self.write_bytes(addr, bytes);
    }

    /// An order-independent digest of all resident content, for verifying
    /// that two runs produced identical memory (the paper's "control does
    /// not alter program correctness" check). Zero pages that were touched
    /// but never written to a non-zero value hash identically to absent
    /// pages.
    pub fn digest(&self) -> u64 {
        // FNV-1a per page folded with the page number, combined with XOR so
        // iteration order does not matter.
        let mut acc = 0u64;
        for (&pageno, page) in &self.pages {
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ pageno.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &b in page.iter() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            acc ^= h;
        }
        acc
    }
}

impl voltctl_snap::Pack for Memory {
    /// Serializes every resident page (including all-zero ones, so the
    /// observable `resident_pages()` count survives a round trip) in
    /// ascending page order, making the encoding canonical.
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        let mut pagenos: Vec<u64> = self.pages.keys().copied().collect();
        pagenos.sort_unstable();
        w.put_usize(pagenos.len());
        for pageno in pagenos {
            w.put_u64(pageno);
            w.put_raw(&self.pages[&pageno][..]);
        }
    }
}

impl voltctl_snap::Unpack for Memory {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let n = r.get_count("memory page table")?;
        let mut pages = PageTable::with_capacity_and_hasher(n, Default::default());
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let pageno = r.get_u64()?;
            if prev.is_some_and(|p| p >= pageno) {
                return Err(voltctl_snap::SnapError::Corrupt(format!(
                    "memory pages out of order or duplicated at page {pageno:#x}"
                )));
            }
            prev = Some(pageno);
            let bytes = r.get_raw(PAGE_SIZE, "memory page")?;
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page.copy_from_slice(bytes);
            pages.insert(pageno, page);
        }
        Ok(Memory { pages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u64_roundtrip_little_endian() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0x0102030405060708);
        assert_eq!(m.read_u64(0x1000), 0x0102030405060708);
        assert_eq!(m.read_u8(0x1000), 0x08);
        assert_eq!(m.read_u8(0x1007), 0x01);
    }

    #[test]
    fn u32_roundtrip() {
        let mut m = Memory::new();
        m.write_u32(0x2004, 0xa1b2c3d4);
        assert_eq!(m.read_u32(0x2004), 0xa1b2c3d4);
        // High half untouched.
        assert_eq!(m.read_u32(0x2008), 0);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.write_f64(0x3000, -1234.5678);
        assert_eq!(m.read_f64(0x3000), -1234.5678);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x1fff; // last byte of a page
        m.write_u64(addr, 0x1122334455667788);
        assert_eq!(m.read_u64(addr), 0x1122334455667788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn sparse_pages() {
        let mut m = Memory::new();
        m.write_u8(0, 1);
        m.write_u8(1 << 40, 2); // a terabyte away
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_u8(1 << 40), 2);
    }

    #[test]
    fn digest_is_content_sensitive_and_order_free() {
        let mut a = Memory::new();
        a.write_u64(0x1000, 7);
        a.write_u64(0x9000, 9);
        let mut b = Memory::new();
        b.write_u64(0x9000, 9);
        b.write_u64(0x1000, 7);
        assert_eq!(a.digest(), b.digest());
        b.write_u64(0x1000, 8);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_ignores_zero_pages() {
        let mut a = Memory::new();
        a.write_u64(0x5000, 0); // touched but zero
        assert_eq!(a.digest(), Memory::new().digest());
    }

    #[test]
    fn load_places_image() {
        let mut m = Memory::new();
        m.load(0x100, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(0x100), 0x04030201);
    }

    #[test]
    fn wire_round_trip_preserves_pages_including_zero_pages() {
        use voltctl_snap::{ByteReader, ByteWriter, Pack, Unpack};
        let mut m = Memory::new();
        m.write_u64(0x1000, 0xdead_beef);
        m.write_u64(0x5000, 0); // touched but zero — must stay resident
        let mut w = ByteWriter::new();
        m.pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = Memory::unpack(&mut r).unwrap();
        assert!(r.finished());
        assert_eq!(back.resident_pages(), 2);
        assert_eq!(back.read_u64(0x1000), 0xdead_beef);
        assert_eq!(back.digest(), m.digest());
    }

    #[test]
    fn wire_decode_rejects_duplicate_pages() {
        use voltctl_snap::{ByteReader, ByteWriter, Unpack};
        let mut w = ByteWriter::new();
        w.put_usize(2);
        for _ in 0..2 {
            w.put_u64(0x7); // same page number twice
            w.put_raw(&[0u8; PAGE_SIZE]);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(Memory::unpack(&mut r).is_err());
    }
}
