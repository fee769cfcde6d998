//! The host clock, calibrated against fixed reference kernels.
//!
//! A shared host changes speed by itself. On a 2-vCPU VM, one fixed
//! supervised solve repeated for 100 s took from 0.8x to 1.2x its mean
//! time in 2 s windows, and over an hour the whole machine moved between
//! spells in which every workload ran up to 2.5x faster or slower on the
//! wall clock. Steal time stayed at zero, so process CPU time drifts the
//! same way. A wall-clock figure therefore mixes the program's speed with
//! the host's.
//!
//! The benchmark times two small compute kernels of its own ([`KERNELS`])
//! at short intervals all through set-up and the timed phase, and reports
//! host-clock figures in *reference* time: every stretch of wall time is
//! scaled by the host's speed nearby, the geometric mean over the kernels
//! of `nominal time / measured time`, so a stretch that ran while the host
//! was 1.3x slow counts 1/1.3 of its wall time. The kernels' own samples
//! are cut out of the timeline. They share no code with the program, so a
//! faster or slower program moves the reference-time figures as it moves
//! the wall-clock ones; only the host's drift cancels. On a host as fast as
//! the reference, reference time equals wall time.
//!
//! Both kernels stay in L1, so they time the core and not the cache state
//! the program leaves behind. A pointer chase and an allocator kernel were
//! tried too: after a fleet round they met a cold cache and heap, after a
//! library call a warm one, so the same host read up to 5x apart between
//! workloads. Across a 2.3 to 2.5x change of host speed, the benchmark's
//! reference-time figures moved by 12 % or less, set-up times by up to
//! 17 %.

use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The clock samples the kernels at most this often.
pub const CADENCE: Duration = Duration::from_millis(25);

/// Each sample's speed is the median of this many neighbouring samples,
/// centred on it, so one sample cut short or stretched by an interrupt
/// does not move the scale.
const SMOOTH: usize = 5;

/// A reference kernel: fixed work, and its median time on the reference
/// host, a 2-vCPU x86-64 VM.
pub struct Kernel {
    /// What it exercises.
    pub name: &'static str,
    /// Median seconds per run on the reference host.
    pub nominal_s: f64,
    /// Runs it once; returns a checksum.
    pub run: fn() -> f64,
}

/// The reference kernels.
pub const KERNELS: [Kernel; 2] = [
    Kernel {
        name: "stencil",
        nominal_s: 85e-6,
        run: stencil,
    },
    Kernel {
        name: "branch",
        nominal_s: 100e-6,
        run: branch,
    },
];

/// RK4 on `u' = b − A·u` with `A` a 1D five-point stencil held as gather
/// lists, the same kind of work as the simulator's op tape (gather slots,
/// multiply by gains, accumulate, integrate).
fn stencil() -> f64 {
    const STEPS: usize = 48;
    let n = black_box(64);
    let cols: Vec<[usize; 5]> = (0..n)
        .map(|i| {
            [
                i,
                (i + n - 1) % n,
                (i + 1) % n,
                (i + n - 2) % n,
                (i + 2) % n,
            ]
        })
        .collect();
    let gains = black_box([6.0, -1.5, -1.5, -0.25, -0.25]);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let deriv = |u: &[f64], out: &mut [f64]| {
        for ((o, row), bi) in out.iter_mut().zip(&cols).zip(&b) {
            let mut s = *bi;
            for (&c, g) in row.iter().zip(&gains) {
                s -= g * u[c];
            }
            *o = s;
        }
    };
    let h = black_box(0.01);
    let mut u = vec![0.0; n];
    let (mut k1, mut k2, mut k3, mut k4) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut t = vec![0.0; n];
    for _ in 0..STEPS {
        deriv(&u, &mut k1);
        for i in 0..n {
            t[i] = u[i] + 0.5 * h * k1[i];
        }
        deriv(&t, &mut k2);
        for i in 0..n {
            t[i] = u[i] + 0.5 * h * k2[i];
        }
        deriv(&t, &mut k3);
        for i in 0..n {
            t[i] = u[i] + h * k3[i];
        }
        deriv(&t, &mut k4);
        for i in 0..n {
            u[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
    u.iter().sum()
}

/// An xorshift stream steering unpredictable branches.
fn branch() -> f64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    let mut sum = 0u64;
    for k in 0..10_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(3) {
            sum += k;
        } else if x % 5 == 1 {
            sum ^= x;
        } else {
            sum = sum.wrapping_mul(3);
        }
    }
    sum as f64
}

/// Runs every kernel once; returns each one's seconds.
fn run_kernels() -> [f64; KERNELS.len()] {
    let mut took = [0.0; KERNELS.len()];
    for (k, t) in KERNELS.iter().zip(&mut took) {
        let at = Instant::now();
        black_box((k.run)());
        *t = at.elapsed().as_secs_f64().max(1e-9);
    }
    took
}

/// One thread's speed: the geometric mean of `nominal / measured` over
/// the kernels.
fn speed(took: &[f64; KERNELS.len()]) -> f64 {
    let log_speed: f64 = KERNELS
        .iter()
        .zip(took)
        .map(|(k, t)| (k.nominal_s / t).ln())
        .sum();
    (log_speed / KERNELS.len() as f64).exp()
}

/// Kernel samples taken through a run, and the reference time they imply.
#[derive(Debug)]
pub struct HostClock {
    /// Threads each sample runs the kernels on at once.
    threads: usize,
    /// When each sample ran, in order, and the host's speed it measured.
    samples: Vec<(Range<Instant>, f64)>,
    /// Each kernel's seconds, per thread of every sample taken by
    /// [`HostClock::sample`].
    kernel_s: Vec<[f64; KERNELS.len()]>,
}

impl HostClock {
    /// A clock with no samples yet that samples on `threads` threads at
    /// once: one per core the program runs on, since a fleet round lasts
    /// as long as its slowest worker and a neighbour may slow one core
    /// and not the other.
    pub fn new(threads: usize) -> Self {
        HostClock {
            threads: threads.max(1),
            samples: Vec::new(),
            kernel_s: Vec::new(),
        }
    }

    /// Runs every kernel once on each thread, now, and records the host's
    /// speed: the harmonic mean over threads of each thread's speed, so a
    /// slow core weighs as it does on work split evenly between cores.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let took: Vec<[f64; KERNELS.len()]> = std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.threads)
                .map(|_| scope.spawn(run_kernels))
                .collect();
            let mut took = vec![run_kernels()];
            took.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("kernel threads do not panic")),
            );
            took
        });
        let slowness: f64 = took.iter().map(|t| 1.0 / speed(t)).sum();
        self.record(start..Instant::now(), took.len() as f64 / slowness);
        self.kernel_s.extend(took);
    }

    /// Each kernel's median seconds over the samples taken so far.
    pub fn kernel_medians(&self) -> [f64; KERNELS.len()] {
        let mut medians = [0.0; KERNELS.len()];
        for (j, m) in medians.iter_mut().enumerate() {
            let mut v: Vec<f64> = self.kernel_s.iter().map(|t| t[j]).collect();
            v.sort_by(f64::total_cmp);
            *m = v.get(v.len() / 2).copied().unwrap_or(0.0);
        }
        medians
    }

    /// Times the kernel unless the last sample is younger than [`CADENCE`].
    pub fn sample_if_due(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(s, _)| s.end.elapsed() >= CADENCE)
        {
            self.sample();
        }
    }

    /// Adds a sample that ran over `span` and measured `speed`.
    pub fn record(&mut self, span: Range<Instant>, speed: f64) {
        debug_assert!(self.samples.last().is_none_or(|(s, _)| s.end <= span.start));
        self.samples.push((span, speed));
    }

    /// Kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Each sample's host speed relative to the reference, smoothed
    /// (`> 1` is faster than the reference host).
    pub fn speeds(&self) -> Vec<f64> {
        let raw: Vec<f64> = self.samples.iter().map(|(_, speed)| *speed).collect();
        let half = SMOOTH / 2;
        (0..raw.len())
            .map(|k| {
                let lo = k.saturating_sub(half);
                let hi = (k + half + 1).min(raw.len());
                let mut near = raw[lo..hi].to_vec();
                near.sort_by(f64::total_cmp);
                let mid = near.len() / 2;
                if near.len() % 2 == 1 {
                    near[mid]
                } else {
                    0.5 * (near[mid - 1] + near[mid])
                }
            })
            .collect()
    }

    /// Converts the clock into a timeline that maps wall instants to
    /// reference seconds.
    pub fn timeline(&self) -> Timeline {
        let spans: Vec<Range<Instant>> = self.samples.iter().map(|(s, _)| s.clone()).collect();
        Timeline::new(&spans, self.speeds())
    }
}

/// Reference time as a function of wall time.
///
/// Between two samples the speed is interpolated linearly from the earlier
/// sample's speed to the later one's; before the first and after the last
/// it holds constant; inside a sample it is zero, so the kernel's own time
/// never counts. A clock with no samples runs at the reference speed.
#[derive(Debug)]
pub struct Timeline {
    /// Each sample's span, with its speed and the reference time elapsed at
    /// its start since the first sample started.
    knots: Vec<(Range<Instant>, f64, f64)>,
}

impl Timeline {
    fn new(samples: &[Range<Instant>], speeds: Vec<f64>) -> Self {
        let mut knots: Vec<(Range<Instant>, f64, f64)> = Vec::with_capacity(samples.len());
        let mut at = 0.0;
        for (span, speed) in samples.iter().zip(speeds) {
            if let Some((prev, prev_speed, _)) = knots.last() {
                let gap = span.start.saturating_duration_since(prev.end).as_secs_f64();
                at += gap * 0.5 * (prev_speed + speed);
            }
            knots.push((span.clone(), speed, at));
        }
        Timeline { knots }
    }

    /// Reference seconds elapsed at wall instant `t`, from an origin fixed
    /// by the samples (only differences are meaningful).
    fn at(&self, t: Instant) -> f64 {
        let Some(first) = self.knots.first() else {
            return 0.0;
        };
        // The last sample that started at or before `t`.
        let k = self.knots.partition_point(|(span, _, _)| span.start <= t);
        if k == 0 {
            return -(first.0.start - t).as_secs_f64() * first.1;
        }
        let (span, speed, at) = &self.knots[k - 1];
        if t <= span.end {
            return *at;
        }
        let since = (t - span.end).as_secs_f64();
        match self.knots.get(k) {
            None => at + since * speed,
            Some((next, next_speed, _)) => {
                let gap = (next.start - span.end).as_secs_f64();
                let alpha = since / gap;
                at + since * (speed + 0.5 * alpha * (next_speed - speed))
            }
        }
    }

    /// Reference seconds between wall instants `a` and `b` (`a ≤ b`).
    pub fn seconds(&self, a: Instant, b: Instant) -> f64 {
        if self.knots.is_empty() {
            return b.saturating_duration_since(a).as_secs_f64();
        }
        (self.at(b) - self.at(a)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wall length of every synthetic sample.
    const SAMPLE: f64 = 250e-6;

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    /// A clock whose samples start every `every` seconds from `t0` and
    /// measure speed `speed(k)`.
    fn clock(t0: Instant, every: f64, speed: impl Fn(usize) -> f64, n: usize) -> HostClock {
        let mut c = HostClock::new(1);
        for k in 0..n {
            let start = t0 + secs(every * k as f64);
            c.record(start..start + secs(SAMPLE), speed(k));
        }
        c
    }

    #[test]
    fn a_reference_speed_host_counts_wall_time_minus_the_samples() {
        let t0 = Instant::now();
        let c = clock(t0, 0.1, |_| 1.0, 11);
        let tl = c.timeline();
        // From the first sample's end to the last's start: ten gaps.
        let a = t0 + secs(SAMPLE);
        let b = t0 + secs(1.0);
        let expect = 1.0 - 10.0 * SAMPLE;
        assert!((tl.seconds(a, b) - expect).abs() < 1e-6);
        // Inside one gap, and before and after every sample.
        let mid = t0 + secs(0.05);
        assert!((tl.seconds(a, mid) - (0.05 - SAMPLE)).abs() < 1e-6);
        assert!((tl.seconds(t0 - secs(0.5), t0) - 0.5).abs() < 1e-6);
        assert!((tl.seconds(b + secs(0.5), b + secs(2.5)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn a_slow_host_counts_proportionally_less() {
        let t0 = Instant::now();
        let tl = clock(t0, 0.1, |_| 0.5, 11).timeline();
        let (a, b) = (t0 + secs(0.2 + SAMPLE), t0 + secs(0.3));
        assert!((tl.seconds(a, b) - 0.5 * (0.1 - SAMPLE)).abs() < 1e-6);
    }

    #[test]
    fn speed_is_interpolated_between_samples_and_one_outlier_is_ignored() {
        let t0 = Instant::now();
        // Speed 1 up to sample 4, 0.5 from sample 5 on; sample 1 is hit by
        // an interrupt and reads 10x slow.
        let speed = |k: usize| match k {
            1 => 0.1,
            k if k <= 4 => 1.0,
            _ => 0.5,
        };
        let c = clock(t0, 1.0, speed, 12);
        let speeds = c.speeds();
        // The median of five centred samples switches halfway between.
        assert!(speeds[..5].iter().all(|&s| s == 1.0), "{speeds:?}");
        assert!(speeds[5..].iter().all(|&s| s == 0.5), "{speeds:?}");
        // Over the gap from sample 4 to sample 5 the speed runs linearly
        // from 1 to 0.5: the mean is 0.75.
        let tl = c.timeline();
        let a = t0 + secs(4.0 + SAMPLE);
        let b = t0 + secs(5.0);
        let gap = 1.0 - SAMPLE;
        assert!((tl.seconds(a, b) - 0.75 * gap).abs() < 1e-6);
        // The first half of that gap runs from 1 to 0.75: mean 0.875.
        let half = a + secs(0.5 * gap);
        assert!((tl.seconds(a, half) - 0.875 * 0.5 * gap).abs() < 1e-6);
    }

    #[test]
    fn no_samples_means_wall_time() {
        let t0 = Instant::now();
        let tl = HostClock::new(1).timeline();
        assert!((tl.seconds(t0, t0 + secs(1.5)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn the_kernels_are_fixed_work() {
        for k in &KERNELS {
            assert_eq!((k.run)().to_bits(), (k.run)().to_bits(), "{}", k.name);
            assert!((k.run)().is_finite(), "{}", k.name);
        }
        let mut c = HostClock::new(2);
        c.sample();
        assert_eq!(c.samples(), 1);
        assert!(c.speeds()[0] > 0.0);
        assert!(c.kernel_medians().iter().all(|&t| t > 0.0));
    }
}
