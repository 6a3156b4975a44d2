//! The span clock.
//!
//! Recording a span costs, above all, its clock reads: on the
//! virtualized hosts this code serves from, an `Instant`-based
//! nanosecond read costs ~45ns while a raw TSC read costs ~20ns, and
//! the serving hot path takes several reads per request. So the hot
//! side of the API, [`now_ticks`], returns *raw ticks* — timestamp
//! counter reads on x86_64, `Instant`-derived nanoseconds elsewhere —
//! and the tick→nanosecond conversion happens only on the cold
//! exposition side ([`Scale`]), where one calibration pair per
//! snapshot amortizes to nothing.
//!
//! This is the one module in the crate allowed `unsafe` (the single
//! `_rdtsc` intrinsic call, which has no memory-safety preconditions),
//! mirroring how the server confines its raw epoll syscalls to one
//! `sys` module.

use std::sync::OnceLock;
use std::time::Instant;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod imp {
    /// Whether ticks are already nanoseconds (no conversion needed).
    pub(super) const TICKS_ARE_NS: bool = false;

    /// One raw timestamp-counter read. Unserialized — it may reorder
    /// against neighbouring instructions by a few cycles, which is
    /// noise at span granularity.
    pub(super) fn raw_ticks() -> u64 {
        // SAFETY: RDTSC reads the CPU's timestamp counter into
        // registers; it touches no memory and every x86_64 has it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    pub(super) const TICKS_ARE_NS: bool = true;

    pub(super) fn raw_ticks() -> u64 {
        super::base().instant.elapsed().as_nanos() as u64
    }
}

/// The process base pair: a tick count and an `Instant` captured
/// back-to-back on first use. Ticks are reported relative to
/// `base().ticks`, and [`Scale`] measures nanoseconds-per-tick against
/// the pair.
struct Base {
    ticks: u64,
    instant: Instant,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| Base {
        // On non-x86_64 targets `raw_ticks` is itself `Instant`-based
        // and already relative, so the tick base stays zero.
        ticks: if imp::TICKS_ARE_NS {
            0
        } else {
            imp::raw_ticks()
        },
        instant: Instant::now(),
    })
}

/// Monotonic span timestamp in clock ticks (first call ≈ 1). This is
/// the recording-side unit: every stamp [`open`](crate::open) and
/// [`close`](crate::close) hand out comes from here. Collected
/// [`SpanRecord`](crate::SpanRecord)s are already converted to
/// nanoseconds.
///
/// Never 0, since callers read 0 as "untraced": on virtualized hosts a
/// vCPU's counter can read a few ticks *behind* the base sample taken on
/// another vCPU, and that skew clamps to 1 rather than wrapping to ~2^64
/// or dropping the span. (A 64-bit counter won't genuinely wrap for
/// centuries.)
pub(crate) fn now_ticks() -> u64 {
    imp::raw_ticks().saturating_sub(base().ticks).max(1)
}

/// A sampled ticks→nanoseconds conversion factor.
///
/// Sampling pairs one tick read and one `Instant` read against the
/// process base pair, so the factor's relative error is bounded by two
/// clock-read jitters over the whole process uptime — take one per
/// snapshot or drain pass, never per span.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scale {
    ns_per_tick: f64,
}

impl Scale {
    pub(crate) fn sample() -> Scale {
        if imp::TICKS_ARE_NS {
            return Scale { ns_per_tick: 1.0 };
        }
        let base = base();
        let ticks = imp::raw_ticks().saturating_sub(base.ticks);
        let ns = base.instant.elapsed().as_nanos() as u64;
        if ticks == 0 || ns == 0 {
            // Sampled within the first tick of the process's life; the
            // only spans this could misconvert are equally young.
            return Scale { ns_per_tick: 1.0 };
        }
        Scale {
            ns_per_tick: ns as f64 / ticks as f64,
        }
    }

    /// Converts a tick count (timestamp or duration) to nanoseconds.
    pub(crate) fn ticks_to_ns(self, ticks: u64) -> u64 {
        (ticks as f64 * self.ns_per_tick) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_advance_and_convert_to_plausible_nanoseconds() {
        let from = now_ticks();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let elapsed = now_ticks().saturating_sub(from);
        assert!(elapsed > 0, "the tick clock must advance");
        let ns = Scale::sample().ticks_to_ns(elapsed);
        assert!(
            (3_000_000..500_000_000).contains(&ns),
            "a ~5ms sleep converted to {ns}ns"
        );
    }

    #[test]
    fn conversion_is_monotone() {
        let scale = Scale::sample();
        let mut last = 0;
        for ticks in [0u64, 1, 10, 1_000, 1_000_000, 1 << 40] {
            let ns = scale.ticks_to_ns(ticks);
            assert!(ns >= last, "ticks_to_ns must be monotone");
            last = ns;
        }
    }
}
