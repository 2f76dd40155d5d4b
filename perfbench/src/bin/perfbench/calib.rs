//! Fixed host calibration loops, so figures taken on different hosts
//! can be compared by ratio: a pure-ALU dependency chain and a
//! pointer chase over a buffer far larger than L2.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;

const ALU_STEPS: u64 = 1 << 24;
/// 16 MiB of `u64` slots.
const CHASE_SLOTS: usize = 1 << 21;
const CHASE_HOPS: u64 = 1 << 20;
const REPEATS: usize = 3;

/// ns per step of a serial multiply/xor-shift chain.
fn alu_once() -> f64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let start = Instant::now();
    for _ in 0..ALU_STEPS {
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / ALU_STEPS as f64
}

/// One random cycle through every slot (Sattolo's shuffle from a fixed
/// seed), so each hop is a dependent, unpredictable load.
fn chase_buffer() -> Vec<u64> {
    let mut next: Vec<u64> = (0..CHASE_SLOTS as u64).collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..CHASE_SLOTS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

/// ns per dependent load.
fn chase_once(next: &[u64]) -> f64 {
    let mut at = black_box(0u64);
    let start = Instant::now();
    for _ in 0..CHASE_HOPS {
        at = next[at as usize];
    }
    black_box(at);
    start.elapsed().as_nanos() as f64 / CHASE_HOPS as f64
}

/// `(alu_ns, chase_ns)`, each the median of three timed repeats after
/// one untimed warm-up.
pub fn calibrate() -> (f64, f64) {
    alu_once();
    let alu: Vec<f64> = (0..REPEATS).map(|_| alu_once()).collect();
    let next = chase_buffer();
    chase_once(&next);
    let chase: Vec<f64> = (0..REPEATS).map(|_| chase_once(&next)).collect();
    (median(&alu), median(&chase))
}

/// ns per `Instant::now()` call: the cost every timed span pays.
pub fn clock_ns() -> f64 {
    const READS: u32 = 1 << 16;
    let start = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(READS)
}
