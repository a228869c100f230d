//! Page-granular, copy-on-write memory images ([`PagedImage`]).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Words per page: 512 eight-byte words, 4 KiB. An image shorter than a
/// page is one short page.
pub const PAGE_WORDS: usize = 512;

/// `log2(PAGE_WORDS)`: a word address shifted right by this is its page.
pub(crate) const PAGE_SHIFT: u32 = PAGE_WORDS.trailing_zeros();

/// Backing words of the shared zero page.
static ZERO_WORDS: [i64; PAGE_WORDS] = [0; PAGE_WORDS];

/// One page of a [`PagedImage`]: `None` is the shared all-zero page,
/// `Some` holds the page's words.
pub type Page = Option<Arc<[i64]>>;

/// Number of pages covering `len` words.
pub(crate) fn page_count(len: usize) -> usize {
    len.div_ceil(PAGE_WORDS)
}

/// Word range of page `page` in an image of `len` words.
pub(crate) fn page_range(len: usize, page: usize) -> Range<usize> {
    let start = page * PAGE_WORDS;
    start..len.min(start + PAGE_WORDS)
}

/// The page holding `words`: the shared zero page when they are all zero,
/// a fresh copy otherwise.
pub(crate) fn page_of(words: &[i64]) -> Page {
    words.iter().any(|&w| w != 0).then(|| Arc::from(words))
}

/// `true` when two pages are the same allocation (both the zero page, or
/// one shared `Arc`). Content-equal copies are *not* the same page.
pub(crate) fn same_page(a: Option<&Arc<[i64]>>, b: Option<&Arc<[i64]>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// An immutable, page-granular memory image: the data-memory half of a
/// [`crate::MachineSnapshot`].
///
/// An `Arc`'d table of `Arc`'d 4 KiB pages. All-zero pages are not
/// stored at all — they are the one shared zero page, represented as
/// `None` — so an image costs memory in proportion to the pages its
/// program has written, not to the configured memory size. Cloning an
/// image is O(1), and images captured from the same [`crate::Machine`]
/// share every page that did not change in between: the machine tracks
/// one dirty bit per page and copies only dirty pages on
/// [`crate::Machine::snapshot`], and on [`crate::Machine::restore`]
/// copies only the pages that are dirty or whose `Arc` differs from the
/// image it last snapshotted or restored.
#[derive(Clone)]
pub struct PagedImage {
    len: usize,
    pages: Arc<[Page]>,
}

impl PagedImage {
    /// The image holding a copy of `words`.
    pub fn from_words(words: &[i64]) -> PagedImage {
        PagedImage {
            len: words.len(),
            pages: words.chunks(PAGE_WORDS).map(page_of).collect(),
        }
    }

    /// Assembles an image of `len` words from its pages, in address
    /// order. All-zero pages should be passed as `None` so they share the
    /// zero page; an all-zero `Some` page is still correct, just not
    /// shared.
    ///
    /// # Panics
    ///
    /// Panics if the page count or any page's length does not match the
    /// layout of a `len`-word image ([`PAGE_WORDS`] per page, the last
    /// page holding the remainder).
    pub fn from_pages(len: usize, pages: Vec<Page>) -> PagedImage {
        assert_eq!(
            pages.len(),
            page_count(len),
            "page count of a {len}-word image"
        );
        for (i, page) in pages.iter().enumerate() {
            if let Some(p) = page {
                assert_eq!(p.len(), page_range(len, i).len(), "length of page {i}");
            }
        }
        PagedImage {
            len,
            pages: pages.into(),
        }
    }

    /// Image length in words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-word image.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page table, in address order (`None` is the zero page).
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// The words of page `page`.
    pub fn page(&self, page: usize) -> &[i64] {
        match &self.pages[page] {
            Some(p) => p,
            None => &ZERO_WORDS[..page_range(self.len, page).len()],
        }
    }

    /// Pages that hold a non-zero word (are not the shared zero page).
    pub fn nonzero_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Copies the image into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not exactly [`PagedImage::len`] words long.
    pub fn copy_to(&self, dst: &mut [i64]) {
        assert_eq!(dst.len(), self.len, "destination length");
        for (i, chunk) in dst.chunks_mut(PAGE_WORDS).enumerate() {
            chunk.copy_from_slice(self.page(i));
        }
    }

    /// The image as one flat vector.
    pub fn to_vec(&self) -> Vec<i64> {
        let mut v = vec![0; self.len];
        self.copy_to(&mut v);
        v
    }
}

/// Content equality, with a pointer fast path per page.
impl PartialEq for PagedImage {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && (Arc::ptr_eq(&self.pages, &other.pages)
                || self
                    .pages
                    .iter()
                    .zip(other.pages.iter())
                    .enumerate()
                    .all(|(i, (a, b))| {
                        same_page(a.as_ref(), b.as_ref()) || self.page(i) == other.page(i)
                    }))
    }
}

impl Eq for PagedImage {}

impl fmt::Debug for PagedImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedImage")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .field("nonzero_pages", &self.nonzero_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_covers_every_word_once() {
        for len in [0usize, 1, 8, 511, 512, 513, 1024, 1500] {
            let total: usize = (0..page_count(len)).map(|p| page_range(len, p).len()).sum();
            assert_eq!(total, len, "len {len}");
        }
        assert_eq!(page_count(8), 1);
        assert_eq!(page_range(8, 0), 0..8);
        assert_eq!(page_range(1500, 2), 1024..1500);
    }

    #[test]
    fn zero_pages_are_shared_and_round_trip() {
        let mut words = vec![0i64; 3 * PAGE_WORDS + 5];
        words[PAGE_WORDS + 7] = -9;
        words[3 * PAGE_WORDS + 4] = 1;
        let img = PagedImage::from_words(&words);
        assert_eq!(img.pages().len(), 4);
        assert_eq!(img.nonzero_pages(), 2);
        assert!(img.pages()[0].is_none() && img.pages()[2].is_none());
        assert_eq!(img.to_vec(), words);
        assert_eq!(img.page(3).len(), 5);
        let zeros = PagedImage::from_words(&[0; 10]);
        assert_eq!((zeros.nonzero_pages(), zeros.to_vec()), (0, vec![0; 10]));
    }

    #[test]
    fn equality_is_by_content() {
        let mut words = vec![0i64; 2 * PAGE_WORDS];
        words[3] = 4;
        let a = PagedImage::from_words(&words);
        let b = PagedImage::from_words(&words);
        assert!(!Arc::ptr_eq(
            a.pages()[0].as_ref().unwrap(),
            b.pages()[0].as_ref().unwrap()
        ));
        assert_eq!(a, b);
        // An all-zero page held as a copy equals the shared zero page.
        let c = PagedImage::from_pages(
            2 * PAGE_WORDS,
            vec![a.pages()[0].clone(), Some(Arc::from(vec![0; PAGE_WORDS]))],
        );
        assert_eq!(a, c);
        words[PAGE_WORDS] = 1;
        assert_ne!(a, PagedImage::from_words(&words));
        assert_ne!(a, PagedImage::from_words(&[0; 2 * PAGE_WORDS]));
        assert_ne!(
            PagedImage::from_words(&[0; 4]),
            PagedImage::from_words(&[0; 8])
        );
    }

    #[test]
    #[should_panic(expected = "length of page 1")]
    fn from_pages_rejects_a_misshapen_page() {
        let _ = PagedImage::from_pages(PAGE_WORDS + 3, vec![None, Some(Arc::from(vec![1; 4]))]);
    }
}
