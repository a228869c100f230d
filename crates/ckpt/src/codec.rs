//! A minimal self-describing binary codec.
//!
//! Everything is little-endian and length-prefixed; floating-point
//! values round-trip through their IEEE-754 bit patterns so encoding is
//! bit-exact. Paged word images can be written with a zero-run encoding
//! that collapses the untouched regions of a machine's memory image — a
//! 32 MiB image whose workload touches a few hundred KiB encodes in
//! roughly the touched size.
//!
//! # Zero-run encoding
//!
//! An `n`-word image is written as `n`, then alternating groups of
//! (zero-run length, literal count, literal words) until `n` words are
//! covered. Each group is a maximal run of zero words followed by a
//! maximal run of non-zero words, so the bytes depend only on the words,
//! never on how the image is split into pages: an image streams in page
//! by page ([`Encoder::put_i64_pages_rle`]) and decodes straight into
//! pages ([`Decoder::get_i64_pages_rle`]), with every page a zero run
//! covers left as the shared zero page (`None`).

use std::sync::Arc;

/// Errors produced while decoding a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the value was complete.
    Truncated,
    /// The stream decoded but violated an invariant (bad tag, absurd
    /// length, non-UTF-8 string, ...). The payload names the violation.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "byte stream truncated"),
            CodecError::Malformed(what) => write!(f, "malformed byte stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// 64-bit FNV-1a over a byte slice; the store's record checksum and the
/// content-address hash both use it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only binary writer. Obtain the encoded bytes with
/// [`Encoder::into_bytes`].
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact, NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `u64` slice, verbatim.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Writes a `len`-word image given as its pages in address order,
    /// with zero-run compression (see the [module docs](self)). Every page
    /// holds `page_words` words except the last, which holds the
    /// remainder; `None` is an all-zero page. Runs carry across page
    /// boundaries, so the bytes are those of the flat image.
    ///
    /// # Panics
    ///
    /// Panics if `page_words` is zero or the pages do not cover exactly
    /// `len` words.
    pub fn put_i64_pages_rle<'p>(
        &mut self,
        len: usize,
        page_words: usize,
        pages: impl IntoIterator<Item = Option<&'p [i64]>>,
    ) {
        assert!(page_words > 0, "pages must hold at least one word");
        self.put_u64(len as u64);
        // Zeros not yet written, and — while inside a literal run — the
        // buffer offset of its count (patched when the run ends) and its
        // length so far.
        let mut zeros = 0u64;
        let mut open: Option<(usize, u64)> = None;
        let mut covered = 0usize;
        for page in pages {
            let words = page.map_or(page_words.min(len - covered), <[i64]>::len);
            covered += words;
            assert!(covered <= len, "pages cover more than {len} words");
            let Some(page) = page.filter(|p| p.iter().any(|&x| x != 0)) else {
                self.close_literals(&mut open);
                zeros += words as u64;
                continue;
            };
            let mut i = 0;
            while i < page.len() {
                let z = page[i..].iter().take_while(|&&x| x == 0).count();
                if z > 0 {
                    self.close_literals(&mut open);
                    zeros += z as u64;
                    i += z;
                    continue;
                }
                let lits = page[i..].iter().take_while(|&&x| x != 0).count();
                let (_, count) = open.get_or_insert_with(|| {
                    self.put_u64(zeros);
                    self.put_u64(0);
                    (self.buf.len() - 8, 0)
                });
                *count += lits as u64;
                zeros = 0;
                for &x in &page[i..i + lits] {
                    self.put_i64(x);
                }
                i += lits;
            }
        }
        assert_eq!(covered, len, "pages must cover the declared length");
        if open.is_some() {
            self.close_literals(&mut open);
        } else if zeros > 0 {
            self.put_u64(zeros);
            self.put_u64(0);
        }
    }

    /// Ends an open literal run by patching its count into place.
    fn close_literals(&mut self, open: &mut Option<(usize, u64)>) {
        if let Some((at, count)) = open.take() {
            self.buf[at..at + 8].copy_from_slice(&count.to_le_bytes());
        }
    }
}

/// Sequential reader over an encoded byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte has been consumed — catches payloads
    /// with trailing garbage.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool out of range")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    fn get_len(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Malformed("length overflow"))?;
        // A length that cannot possibly fit in the remaining bytes is
        // corruption; refusing it here prevents huge bogus allocations.
        if elem_bytes > 0 && n > self.remaining() / elem_bytes {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| CodecError::Malformed("invalid UTF-8"))
    }

    /// Reads a length-prefixed `u64` slice written by
    /// [`Encoder::put_u64_slice`].
    pub fn get_u64_slice(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.get_len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_u64()?);
        }
        Ok(v)
    }

    /// Reads a zero-run-compressed image written by
    /// [`Encoder::put_i64_pages_rle`] straight into pages of
    /// `page_words` words (the last holding the remainder). Returns the
    /// image length and its pages; every all-zero page is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `page_words` is zero.
    #[allow(clippy::type_complexity)]
    pub fn get_i64_pages_rle(
        &mut self,
        page_words: usize,
    ) -> Result<(usize, Vec<Option<Arc<[i64]>>>), CodecError> {
        assert!(page_words > 0, "pages must hold at least one word");
        let n = self.get_u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Malformed("length overflow"))?;
        let mut pages = Vec::new();
        // The page under construction; `pos` counts decoded words.
        let mut page: Vec<i64> = Vec::new();
        let mut pos = 0usize;
        // Length of the page starting at `pos - page.len()`.
        let page_len = |start: usize| page_words.min(n - start);
        let flush = |page: &mut Vec<i64>, pages: &mut Vec<Option<Arc<[i64]>>>| {
            pages.push(page.iter().any(|&x| x != 0).then(|| Arc::from(&page[..])));
            page.clear();
        };
        while pos < n {
            let zeros = usize::try_from(self.get_u64()?)
                .map_err(|_| CodecError::Malformed("run overflow"))?;
            let lits = usize::try_from(self.get_u64()?)
                .map_err(|_| CodecError::Malformed("run overflow"))?;
            let total = zeros
                .checked_add(lits)
                .and_then(|t| pos.checked_add(t))
                .ok_or(CodecError::Malformed("run overflow"))?;
            if total > n || lits > self.remaining() / 8 {
                return Err(CodecError::Malformed("run exceeds declared length"));
            }
            let mut left = zeros;
            while left > 0 {
                let want = page_len(pos - page.len()) - page.len();
                if page.is_empty() && left >= want {
                    // A whole page of the run: the shared zero page.
                    pages.push(None);
                    left -= want;
                    pos += want;
                    continue;
                }
                let take = left.min(want);
                page.resize(page.len() + take, 0);
                left -= take;
                pos += take;
                if take == want {
                    flush(&mut page, &mut pages);
                }
            }
            let mut left = lits;
            while left > 0 {
                let want = page_len(pos - page.len()) - page.len();
                let take = left.min(want);
                let bytes = self.take(take * 8)?;
                page.extend(
                    bytes
                        .chunks_exact(8)
                        .map(|b| i64::from_le_bytes(b.try_into().unwrap())),
                );
                left -= take;
                pos += take;
                if take == want {
                    flush(&mut page, &mut pages);
                }
            }
        }
        Ok((n, pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(0xab);
        e.put_bool(true);
        e.put_bool(false);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 1);
        e.put_i64(-42);
        e.put_f64(f64::NAN);
        e.put_f64(-0.0);
        e.put_str("gzip");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 0xab);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(d.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get_str().unwrap(), "gzip");
        assert_eq!(d.get_bytes().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    /// The flat zero-run encoder the paged one replaced, kept as the
    /// byte-level oracle: the element count, then alternating (zero-run
    /// length, literal count, literals) groups.
    fn flat_encode(v: &[i64]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(v.len() as u64);
        let mut i = 0;
        while i < v.len() {
            let zeros = v[i..].iter().take_while(|&&x| x == 0).count();
            i += zeros;
            let lits = v[i..].iter().take_while(|&&x| x != 0).count();
            e.put_u64(zeros as u64);
            e.put_u64(lits as u64);
            for &x in &v[i..i + lits] {
                e.put_i64(x);
            }
            i += lits;
        }
        e.into_bytes()
    }

    /// The flat decoder paired with [`flat_encode`], the oracle for which
    /// inputs must be rejected and how.
    fn flat_decode(d: &mut Decoder<'_>) -> Result<Vec<i64>, CodecError> {
        let n = d.get_u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Malformed("length overflow"))?;
        let mut v: Vec<i64> = Vec::new();
        while v.len() < n {
            let zeros =
                usize::try_from(d.get_u64()?).map_err(|_| CodecError::Malformed("run overflow"))?;
            let lits =
                usize::try_from(d.get_u64()?).map_err(|_| CodecError::Malformed("run overflow"))?;
            let total = zeros
                .checked_add(lits)
                .and_then(|t| v.len().checked_add(t))
                .ok_or(CodecError::Malformed("run overflow"))?;
            if total > n || lits > d.remaining() / 8 {
                return Err(CodecError::Malformed("run exceeds declared length"));
            }
            v.resize(v.len() + zeros, 0);
            for _ in 0..lits {
                v.push(d.get_i64()?);
            }
        }
        Ok(v)
    }

    /// Splits `v` into `page_words`-word pages, all-zero pages as `None`.
    fn pages_of(v: &[i64], page_words: usize) -> Vec<Option<&[i64]>> {
        v.chunks(page_words)
            .map(|p| p.iter().any(|&x| x != 0).then_some(p))
            .collect()
    }

    fn paged_encode(v: &[i64], page_words: usize) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_i64_pages_rle(v.len(), page_words, pages_of(v, page_words));
        e.into_bytes()
    }

    /// Decodes with the paged decoder and flattens, checking the page
    /// layout and that every all-zero page is `None`.
    fn paged_decode(bytes: &[u8], page_words: usize) -> Result<Vec<i64>, CodecError> {
        let mut d = Decoder::new(bytes);
        let (n, pages) = d.get_i64_pages_rle(page_words)?;
        assert_eq!(pages.len(), n.div_ceil(page_words));
        let mut v = Vec::with_capacity(n);
        for (i, page) in pages.iter().enumerate() {
            let len = page_words.min(n - i * page_words);
            match page {
                Some(p) => {
                    assert_eq!(p.len(), len);
                    assert!(p.iter().any(|&x| x != 0), "all-zero page {i} not shared");
                    v.extend_from_slice(p);
                }
                None => v.resize(v.len() + len, 0),
            }
        }
        Ok(v)
    }

    /// SplitMix64: a seeded generator for the property tests.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random image of runs: zero runs and literal runs of random
    /// lengths (some spanning several pages), optionally forced to end in
    /// a literal or in zeros.
    fn random_image(rng: &mut Mix, len: usize) -> Vec<i64> {
        let mut v = vec![0i64; len];
        let mut i = 0;
        while i < len {
            let max = if rng.below(4) == 0 { 1500 } else { 40 };
            let run = 1 + rng.below(max) as usize;
            let end = len.min(i + run);
            if rng.below(2) == 0 {
                for x in &mut v[i..end] {
                    *x = (rng.next() as i64) | 1;
                }
            }
            i = end;
        }
        v
    }

    #[test]
    fn paged_encoder_is_byte_identical_to_the_flat_encoder() {
        let mut rng = Mix(0x5eed);
        let mut cases: Vec<Vec<i64>> = vec![
            vec![],
            vec![0; 1000],
            vec![7; 9],
            vec![0, 0, 5, 0, -3, 0, 0, 0, 9],
            vec![1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 4],
        ];
        // Runs straddling page boundaries (page size 8 below): a literal
        // run and a zero run each crossing several pages.
        let mut straddle = vec![0i64; 64];
        straddle[5..21].fill(3);
        straddle[40] = -1;
        cases.push(straddle);
        // A literal in the last word only, and an all-zero tail.
        let mut last = vec![0i64; 48];
        last[47] = 1;
        cases.push(last);
        let mut tail = vec![1i64; 20];
        tail.resize(50, 0);
        cases.push(tail);
        for _ in 0..300 {
            let len = rng.below(3000) as usize;
            let mut v = random_image(&mut rng, len);
            match rng.below(3) {
                0 if len > 0 => v[len - 1] = 42,
                1 if len > 0 => v[len - 1] = 0,
                _ => {}
            }
            cases.push(v);
        }
        for v in &cases {
            let flat = flat_encode(v);
            // Page sizes below, at and above the image length, including
            // one page larger than the whole image.
            for page_words in [1, 3, 8, 512, 4096] {
                assert_eq!(
                    paged_encode(v, page_words),
                    flat,
                    "len {} at {page_words} words per page",
                    v.len()
                );
                assert_eq!(paged_decode(&flat, page_words).as_ref(), Ok(v));
            }
        }
        // A mostly-zero image encodes far below its raw size.
        let mut sparse = vec![0i64; 1 << 16];
        sparse[17] = 99;
        sparse[40_000] = -1;
        assert!(paged_encode(&sparse, 512).len() < 200);
    }

    #[test]
    fn paged_decoder_rejects_what_the_flat_decoder_rejects() {
        let mut rng = Mix(0xbad);
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        // Overlong runs (by one word, and by many), literal runs past the
        // declared length (with their literals present), and overflowing
        // run lengths.
        for (n, zeros, lits) in [
            (4u64, 10u64, 0u64),
            (4, 5, 0),
            (4, 2, 3),
            (600, 598, 3),
            (4, u64::MAX, 2),
            (4, 1, u64::MAX),
        ] {
            let mut e = Encoder::new();
            e.put_u64(n);
            e.put_u64(zeros);
            e.put_u64(lits);
            for x in 0..lits.min(8) {
                e.put_i64(x as i64 + 1);
            }
            inputs.push(e.into_bytes());
        }
        // Truncated literals and a declared length the groups never reach.
        let mut e = Encoder::new();
        e.put_u64(8);
        e.put_u64(1);
        e.put_u64(3);
        e.put_i64(5);
        inputs.push(e.into_bytes());
        let mut e = Encoder::new();
        e.put_u64(1000);
        e.put_u64(10);
        e.put_u64(0);
        inputs.push(e.into_bytes());
        // Every cut and random byte flips of valid encodings.
        for _ in 0..40 {
            let len = rng.below(200) as usize;
            let good = flat_encode(&random_image(&mut rng, len));
            for cut in 0..good.len() {
                inputs.push(good[..cut].to_vec());
            }
            for _ in 0..20 {
                let mut bad = good.clone();
                let at = rng.below(bad.len() as u64) as usize;
                bad[at] ^= 1 << rng.below(8);
                inputs.push(bad);
            }
        }
        for bytes in &inputs {
            let flat = flat_decode(&mut Decoder::new(bytes));
            for page_words in [1, 8, 512] {
                let paged = paged_decode(bytes, page_words);
                assert_eq!(paged, flat, "{bytes:?} at {page_words} words per page");
            }
        }
    }

    #[test]
    fn u64_slice_roundtrip() {
        let v: Vec<u64> = vec![u64::MAX, 0, 1, 42];
        let mut e = Encoder::new();
        e.put_u64_slice(&v);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u64_slice().unwrap(), v);
    }

    #[test]
    fn truncated_streams_error_without_panicking() {
        let mut e = Encoder::new();
        e.put_str("hello");
        e.put_u64_slice(&[1, 2, 3]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            let r = d.get_str().and_then(|_| d.get_u64_slice());
            assert!(r.is_err(), "cut at {cut} still decoded");
        }
    }

    #[test]
    fn absurd_lengths_are_rejected_not_allocated() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // claims ~2^64 elements
        let bytes = e.into_bytes();
        assert_eq!(
            Decoder::new(&bytes).get_u64_slice(),
            Err(CodecError::Truncated)
        );
        assert!(Decoder::new(&bytes).get_bytes().is_err());
    }

    #[test]
    fn rle_run_past_declared_length_is_malformed() {
        let mut e = Encoder::new();
        e.put_u64(4); // 4 elements claimed
        e.put_u64(10); // ...but a 10-zero run
        e.put_u64(0);
        let bytes = e.into_bytes();
        assert_eq!(
            Decoder::new(&bytes).get_i64_pages_rle(512),
            Err(CodecError::Malformed("run exceeds declared length"))
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
