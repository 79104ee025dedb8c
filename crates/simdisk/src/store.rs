//! The block images of one [`SimDisk`](crate::SimDisk), paged by track.
//!
//! A blank disk holds only a per-track page index — one `u32` per track,
//! 32 KiB for the default 8 192-track geometry, where an empty slot for
//! every block would cost 2 MiB. A track's page of `blocks_per_track`
//! slots is allocated the first time one of its blocks is written and kept
//! for the disk's lifetime. Unwritten blocks read as `None` whether or not
//! their track has a page, so the paging is invisible to callers.

use crate::DiskGeometry;
use bytes::Bytes;

/// Sparse block store: one lazily allocated page per written track.
pub(crate) struct BlockStore {
    blocks_per_track: u32,
    /// Page number of each track, 1-based; 0 = the track has no page.
    index: Vec<u32>,
    /// The allocated pages, `blocks_per_track` slots each.
    pages: Vec<Box<[Option<Bytes>]>>,
    /// Slots currently holding an image.
    in_use: u32,
}

impl BlockStore {
    /// An empty store for `geometry`: no pages, every block unwritten.
    pub(crate) fn new(geometry: DiskGeometry) -> Self {
        BlockStore {
            blocks_per_track: geometry.blocks_per_track,
            index: vec![0; geometry.tracks as usize],
            pages: Vec::new(),
            in_use: 0,
        }
    }

    /// Splits a block index into (track, in-track offset).
    fn locate(&self, block: u32) -> (usize, usize) {
        (
            (block / self.blocks_per_track) as usize,
            (block % self.blocks_per_track) as usize,
        )
    }

    /// The image of `block`; `None` if it was never written, was cleared,
    /// or lies beyond the store.
    pub(crate) fn get(&self, block: u32) -> Option<&Bytes> {
        let (track, offset) = self.locate(block);
        match self.index.get(track).copied() {
            None | Some(0) => None,
            Some(page) => self.pages[page as usize - 1][offset].as_ref(),
        }
    }

    /// Stores (`Some`) or clears (`None`) the image of `block`. Clearing a
    /// block on a track without a page allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `block` lies beyond the store.
    pub(crate) fn set(&mut self, block: u32, data: Option<Bytes>) {
        let (track, offset) = self.locate(block);
        let page = match self.index[track] {
            0 if data.is_none() => return,
            0 => {
                self.pages
                    .push(vec![None; self.blocks_per_track as usize].into_boxed_slice());
                self.index[track] = self.pages.len() as u32;
                self.pages.len()
            }
            page => page as usize,
        };
        let added = data.is_some();
        let removed = std::mem::replace(&mut self.pages[page - 1][offset], data).is_some();
        self.in_use = self.in_use + u32::from(added) - u32::from(removed);
    }

    /// Number of blocks currently holding an image.
    pub(crate) fn in_use(&self) -> u32 {
        self.in_use
    }
}
