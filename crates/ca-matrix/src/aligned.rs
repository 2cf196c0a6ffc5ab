//! Cache-line-aligned scratch buffers for kernel packing.
//!
//! The BLIS-style packed GEMM in `ca-kernels` copies operand panels into
//! contiguous micro-tile scratch before the register-blocked microkernel
//! runs. Those panels want 64-byte alignment so every SIMD load of a packed
//! micro-panel row sits inside one cache line and never splits across two.
//! `Vec<T>` only guarantees the element's natural alignment, hence this
//! small allocator wrapper. Generic over [`Scalar`] (`f32`/`f64`) with an
//! `f64` default, like [`crate::Matrix`].

use crate::scalar::Scalar;
use core::ops::{Deref, DerefMut};
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};

/// Alignment of [`AlignedBuf`] allocations, in bytes (one x86 cache line).
pub const BUF_ALIGN: usize = 64;

/// A growable scalar buffer whose storage is always [`BUF_ALIGN`]-aligned.
///
/// Unlike `Vec`, growth never copies the old contents: the buffer is scratch
/// that callers fully overwrite each use, so `reserve` simply reallocates
/// fresh zeroed storage when the capacity is insufficient.
pub struct AlignedBuf<T: Scalar = f64> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the buffer exclusively owns its allocation; it is a plain chunk of
// scalars with no interior mutability or thread affinity.
unsafe impl<T: Scalar> Send for AlignedBuf<T> {}
unsafe impl<T: Scalar> Sync for AlignedBuf<T> {}

impl<T: Scalar> AlignedBuf<T> {
    /// Creates an empty buffer (no allocation).
    pub const fn new() -> Self {
        Self { ptr: core::ptr::null_mut(), len: 0 }
    }

    /// Creates a zeroed buffer holding `len` elements.
    pub fn zeroed(len: usize) -> Self {
        let mut b = Self::new();
        b.reserve(len);
        b
    }

    /// Number of elements the buffer currently holds.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ensures capacity for at least `len` elements, discarding contents on
    /// growth (the new storage is zeroed). Never shrinks.
    pub fn reserve(&mut self, len: usize) {
        if len <= self.len {
            return;
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > self.len >= 0 and len > 0
        // here since len > self.len implies len >= 1).
        let ptr = unsafe { alloc_zeroed(layout) } as *mut T;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        self.release();
        self.ptr = ptr;
        self.len = len;
    }

    /// A zeroed, aligned mutable slice of exactly `len` elements, growing
    /// the buffer if needed. The slice contents are unspecified (whatever a
    /// previous user left) — packing code overwrites every element it reads.
    pub fn scratch(&mut self, len: usize) -> &mut [T] {
        self.reserve(len);
        if len == 0 {
            // A never-grown buffer has a null `ptr`, which no slice may hold.
            return &mut [];
        }
        // SAFETY: `ptr` holds at least `len` initialized (zeroed-at-alloc)
        // elements and we hold `&mut self`.
        unsafe { core::slice::from_raw_parts_mut(self.ptr, len) }
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * core::mem::size_of::<T>(), BUF_ALIGN)
            .expect("aligned buffer layout")
    }

    fn release(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: `ptr` was allocated with `Self::layout(self.len)`.
            unsafe { dealloc(self.ptr as *mut u8, Self::layout(self.len)) };
            self.ptr = core::ptr::null_mut();
            self.len = 0;
        }
    }
}

impl<T: Scalar> Default for AlignedBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        self.release();
    }
}

impl<T: Scalar> Deref for AlignedBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        if self.ptr.is_null() {
            &[]
        } else {
            // SAFETY: `ptr` holds `len` initialized elements.
            unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
        }
    }
}

impl<T: Scalar> DerefMut for AlignedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.ptr.is_null() {
            &mut []
        } else {
            // SAFETY: `ptr` holds `len` initialized elements, exclusively.
            unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_grows_zeroed() {
        let mut b: AlignedBuf = AlignedBuf::new();
        assert!(b.is_empty());
        assert_eq!(&b[..], &[]);
        assert!(b.scratch(0).is_empty());
        let s = b.scratch(17);
        assert_eq!(s.len(), 17);
        assert!(s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn storage_is_cache_line_aligned() {
        for n in [1usize, 7, 64, 1000] {
            let b: AlignedBuf = AlignedBuf::zeroed(n);
            assert_eq!(b.as_ptr() as usize % BUF_ALIGN, 0, "misaligned for n={n}");
        }
    }

    #[test]
    fn f32_storage_is_cache_line_aligned() {
        for n in [1usize, 3, 16, 1000] {
            let mut b: AlignedBuf<f32> = AlignedBuf::zeroed(n);
            assert_eq!(b.as_ptr() as usize % BUF_ALIGN, 0, "misaligned for n={n}");
            let s = b.scratch(n);
            assert!(s.iter().all(|&x| x == 0.0f32));
        }
    }

    #[test]
    fn reserve_never_shrinks_and_scratch_reuses() {
        let mut b: AlignedBuf = AlignedBuf::zeroed(100);
        let p = b.as_ptr();
        b.reserve(50);
        assert_eq!(b.len(), 100);
        assert_eq!(b.as_ptr(), p, "no reallocation on smaller request");
        let s = b.scratch(40);
        s[39] = 5.0;
        assert_eq!(b[39], 5.0);
    }

    #[test]
    fn growth_reallocates_aligned() {
        let mut b: AlignedBuf = AlignedBuf::zeroed(8);
        b.scratch(8)[0] = 1.0;
        let s = b.scratch(4096);
        assert_eq!(s.len(), 4096);
        assert_eq!(b.as_ptr() as usize % BUF_ALIGN, 0);
    }
}
