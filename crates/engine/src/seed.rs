//! Deterministic seed derivation for batch jobs.
//!
//! The engine's determinism contract — a batch's results are
//! byte-identical at 1, 2, or 8 worker threads — holds because every
//! random decision in a job is a pure function of `(batch seed, job
//! index, attempt index)`, never of which worker ran the job or when.
//! Seeds are derived with the splitmix64 output permutation (Steele,
//! Lea & Flood 2014), the same generator `java.util.SplittableRandom`
//! uses to split independent streams.
//!
//! Distinctness matters as much as determinism: the splitmix finalizer
//! is a *bijection* on `u64`, so two attempts of one job can never share
//! a seed, and engine seeds cannot collide with the salted embedding
//! restart and packed-sampler seed families except by 64-bit accident —
//! `tests/determinism.rs` pins both properties.

/// The golden-ratio increment γ used by splitmix64 to space stream
/// states (odd, so `k ↦ k·γ (mod 2⁶⁴)` is a bijection).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output permutation: a bijective avalanche mix of the
/// state. Distinct inputs always produce distinct outputs.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The base seed of job `job` in a batch seeded with `batch_seed`.
///
/// `mix(batch_seed + (job+1)·γ)`: γ-spaced states keep per-job states
/// distinct for every pair of job indices, the `+1` keeps job 0 from
/// degenerating to `mix(batch_seed)` (which callers may already use for
/// the batch itself), and the finalizer decorrelates neighbouring jobs.
#[must_use]
pub fn job_seed(batch_seed: u64, job: u64) -> u64 {
    splitmix64(batch_seed.wrapping_add(job.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)))
}

/// The seed of retry `attempt` (0-based) of job `job`.
///
/// Attempt 0 runs with the job's base seed; each retry advances the
/// job's own splitmix stream, so a retried job explores a fresh random
/// stream instead of deterministically repeating its failure.
#[must_use]
pub fn attempt_seed(batch_seed: u64, job: u64, attempt: u64) -> u64 {
    let base = job_seed(batch_seed, job);
    if attempt == 0 {
        return base;
    }
    splitmix64(base.wrapping_add(attempt.wrapping_mul(GOLDEN_GAMMA)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn attempt_zero_is_the_job_seed() {
        for job in [0, 1, 7, u64::MAX / 2] {
            assert_eq!(attempt_seed(42, job, 0), job_seed(42, job));
        }
    }

    #[test]
    fn job_seeds_are_pairwise_distinct() {
        // The γ-spacing + bijective finalizer argument, checked over a
        // realistic batch size.
        let mut seen = HashSet::new();
        for job in 0..4096u64 {
            assert!(seen.insert(job_seed(0xba7c4, job)), "job {job} collided");
        }
    }

    #[test]
    fn attempt_seeds_are_pairwise_distinct_across_a_batch() {
        let mut seen = HashSet::new();
        for job in 0..512u64 {
            for attempt in 0..8u64 {
                assert!(
                    seen.insert(attempt_seed(0xba7c4, job, attempt)),
                    "job {job} attempt {attempt} collided"
                );
            }
        }
    }

    #[test]
    fn derivation_is_stable() {
        // The determinism contract makes seed derivation part of the
        // engine's public behaviour — a silent change here would
        // invalidate recorded batch results. Recompute job_seed(·) from
        // first principles so the check cannot drift together with the
        // implementation.
        assert_eq!(splitmix64(0), 0);
        assert_eq!(job_seed(0, 0), splitmix64(GOLDEN_GAMMA));
        let state = 0xba7c4_u64.wrapping_add(4u64.wrapping_mul(GOLDEN_GAMMA));
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        assert_eq!(job_seed(0xba7c4, 3), z);
    }

    #[test]
    fn batch_seeds_shift_every_job() {
        for job in 0..64u64 {
            assert_ne!(job_seed(1, job), job_seed(2, job));
        }
    }
}
