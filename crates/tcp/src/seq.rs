//! 32-bit wrapping sequence-number arithmetic (RFC 793 style) and
//! unwrapping to 64-bit stream offsets.
//!
//! Internally the endpoint state machines work with `u64` stream
//! offsets (which never wrap in practice); the wire carries `u32`
//! sequence numbers. [`offset_of`] reconstructs the offset closest to
//! a reference, which is exact as long as reordering stays within half
//! the sequence space (2 GiB) — vastly more than any real window.

/// `a < b` in modular sequence space.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a > b` in modular sequence space.
#[cfg(test)]
fn seq_gt(a: u32, b: u32) -> bool {
    seq_lt(b, a)
}

/// Signed distance `a − b` interpreted in modular space.
#[cfg(test)]
fn seq_diff(a: u32, b: u32) -> i32 {
    a.wrapping_sub(b) as i32
}

/// Reconstruct the 64-bit stream offset whose low 32 bits equal `wire`
/// and which is closest to the reference offset `near`.
#[inline]
fn unwrap_near(wire: u32, near: u64) -> u64 {
    let low = near as u32;
    let delta = wire.wrapping_sub(low) as i32 as i64;
    let candidate = near as i64 + delta;
    if candidate < 0 {
        // Cannot go below zero; clamp to the non-negative unwrapping.
        (candidate + (1i64 << 32)) as u64
    } else {
        candidate as u64
    }
}

/// Wire sequence for a 64-bit offset given the connection's initial
/// sequence number.
#[inline]
pub fn wire_seq(iss: u32, offset: u64) -> u32 {
    iss.wrapping_add(offset as u32)
}

/// Offset for a wire sequence given the ISS and a nearby reference
/// offset (typically the highest offset seen so far).
#[inline]
pub fn offset_of(iss: u32, wire: u32, near: u64) -> u64 {
    unwrap_near(wire.wrapping_sub(iss), near)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_rng::cases;

    #[test]
    fn basic_comparisons() {
        assert!(seq_lt(1, 2));
        assert!(!seq_lt(2, 2));
        assert!(seq_gt(2, 1));
    }

    #[test]
    fn comparisons_across_wrap() {
        let a = u32::MAX - 5;
        let b = 5u32;
        assert!(seq_lt(a, b));
        assert!(seq_gt(b, a));
        assert_eq!(seq_diff(b, a), 11);
        assert_eq!(seq_diff(a, b), -11);
    }

    #[test]
    fn unwrap_near_identity_in_range() {
        assert_eq!(unwrap_near(100, 90), 100);
        assert_eq!(unwrap_near(100, 110), 100);
    }

    #[test]
    fn unwrap_near_across_wrap() {
        // Offset just past 2^32; wire has wrapped.
        let near = (1u64 << 32) + 10;
        assert_eq!(unwrap_near(12, near), (1u64 << 32) + 12);
        assert_eq!(unwrap_near(u32::MAX, near), (1u64 << 32) - 1);
    }

    #[test]
    fn wire_and_offset_roundtrip() {
        let iss = 0xDEAD_BEEF;
        for off in [0u64, 1, 1000, (1 << 32) - 1, 1 << 32, (1 << 33) + 7] {
            let w = wire_seq(iss, off);
            assert_eq!(offset_of(iss, w, off), off, "offset {off}");
            // Also resolves correctly from a slightly stale reference.
            assert_eq!(offset_of(iss, w, off.saturating_sub(5000)), off);
        }
    }

    #[test]
    fn prop_unwrap_roundtrip() {
        cases(256, "prop_unwrap_roundtrip", |rng| {
            let off = rng.gen_range(0u64..(1 << 40));
            let jitter = rng.gen_range(-100_000i64..100_000);
            let iss = 12345u32;
            let near = (off as i64 + jitter).max(0) as u64;
            let w = wire_seq(iss, off);
            assert_eq!(offset_of(iss, w, near), off);
        });
    }

    #[test]
    fn prop_lt_antisymmetric() {
        cases(256, "prop_lt_antisymmetric", |rng| {
            let (a, b) = (rng.gen::<u32>(), rng.gen::<u32>());
            if a != b {
                assert!(seq_lt(a, b) != seq_lt(b, a) || seq_diff(a, b) == i32::MIN);
            } else {
                assert!(!seq_lt(a, b) && !seq_lt(b, a));
            }
        });
    }

    #[test]
    fn prop_diff_consistent_with_lt() {
        cases(256, "prop_diff_consistent_with_lt", |rng| {
            let (a, b) = (rng.gen::<u32>(), rng.gen::<u32>());
            if seq_diff(a, b) > 0 {
                assert!(seq_gt(a, b));
            } else if seq_diff(a, b) < 0 {
                assert!(seq_lt(a, b));
            } else {
                assert_eq!(a, b);
            }
        });
    }
}
