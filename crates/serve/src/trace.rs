//! Deterministic, seeded arrival-trace generation.
//!
//! Three traffic shapes cover the serving regimes the ROADMAP's
//! production-scale north star cares about: memoryless steady load
//! (Poisson), two-state bursty load (a Markov-modulated Poisson process),
//! and a slow diurnal ramp. All are generated by inversion/thinning over the
//! workspace's deterministic [`rand`] stream, so identical seeds produce
//! bit-identical traces on every platform.

use exion_model::config::ModelKind;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cluster::ConfigError;

/// The arrival-process shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Memoryless arrivals at a constant rate (requests/second).
    Poisson {
        /// Mean arrival rate (requests/s).
        rate_rps: f64,
    },
    /// Two-state MMPP: a calm state at `rate_rps` and a burst state at
    /// `burst_multiplier ×` that rate, with exponentially distributed
    /// dwell times in each state.
    Bursty {
        /// Calm-state arrival rate (requests/s).
        rate_rps: f64,
        /// Burst-state rate multiplier (> 1).
        burst_multiplier: f64,
        /// Mean dwell time in each state (ms).
        mean_dwell_ms: f64,
    },
    /// A diurnal ramp: the rate follows a raised-cosine from
    /// `trough_frac × peak` at the horizon edges to `peak` in the middle.
    Diurnal {
        /// Peak arrival rate (requests/s).
        peak_rps: f64,
        /// Trough rate as a fraction of the peak (`0..=1`).
        trough_frac: f64,
    },
}

impl TrafficPattern {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::Poisson { .. } => "poisson",
            TrafficPattern::Bursty { .. } => "bursty",
            TrafficPattern::Diurnal { .. } => "diurnal",
        }
    }

    /// The time-averaged offered rate (requests/s).
    pub fn mean_rps(&self) -> f64 {
        match *self {
            TrafficPattern::Poisson { rate_rps } => rate_rps,
            // Equal mean dwell in both states: half the time at each rate.
            TrafficPattern::Bursty {
                rate_rps,
                burst_multiplier,
                ..
            } => rate_rps * (1.0 + burst_multiplier) / 2.0,
            // Mean of trough + (1 − trough)·sin² over the horizon.
            TrafficPattern::Diurnal {
                peak_rps,
                trough_frac,
            } => peak_rps * (trough_frac + (1.0 - trough_frac) * 0.5),
        }
    }

    /// The canonical three-shape suite (Poisson, bursty MMPP, diurnal) at
    /// unit mean rate, for sweeps that scale with [`Self::with_mean_rps`]
    /// (the `serve_sweep` experiment's load sweeps and autoscaling
    /// frontier).
    pub fn standard_suite() -> [TrafficPattern; 3] {
        [
            TrafficPattern::Poisson { rate_rps: 1.0 },
            TrafficPattern::Bursty {
                rate_rps: 1.0,
                burst_multiplier: 4.0,
                mean_dwell_ms: 400.0,
            },
            TrafficPattern::Diurnal {
                peak_rps: 1.0,
                trough_frac: 0.25,
            },
        ]
    }

    /// A copy scaled so the time-averaged rate becomes `rps` — the knob an
    /// arrival-rate sweep turns without changing the traffic shape.
    ///
    /// # Panics
    ///
    /// Panics when this pattern's [`Self::mean_rps`] is zero or not
    /// finite: no scale turns it into `rps`, and dividing by it would hand
    /// back NaN or infinite rates.
    pub fn with_mean_rps(&self, rps: f64) -> Self {
        let mean = self.mean_rps();
        assert!(
            mean.is_finite() && mean != 0.0,
            "cannot scale a traffic pattern of mean {mean} rps to {rps} rps"
        );
        let scale = rps / mean;
        match *self {
            TrafficPattern::Poisson { rate_rps } => TrafficPattern::Poisson {
                rate_rps: rate_rps * scale,
            },
            TrafficPattern::Bursty {
                rate_rps,
                burst_multiplier,
                mean_dwell_ms,
            } => TrafficPattern::Bursty {
                rate_rps: rate_rps * scale,
                burst_multiplier,
                mean_dwell_ms,
            },
            TrafficPattern::Diurnal {
                peak_rps,
                trough_frac,
            } => TrafficPattern::Diurnal {
                peak_rps: peak_rps * scale,
                trough_frac,
            },
        }
    }
}

/// A weighted model mix with per-class SLO multipliers.
///
/// The SLO multiplier scales the model's steady-state service time (a full
/// generation at the deployment's batch size) on the target hardware into
/// an absolute deadline, so one mix definition works across EXION4 and
/// EXION24 instances.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    /// `(model, weight, slo_multiplier)` triples; weights need not sum to 1.
    pub entries: Vec<(ModelKind, f64, f64)>,
}

impl WorkloadMix {
    /// Single-tenant text-to-image traffic (Stable Diffusion).
    pub fn text_to_image() -> Self {
        Self {
            entries: vec![(ModelKind::StableDiffusion, 1.0, 4.0)],
        }
    }

    /// Text/music-to-motion traffic: mostly latent MLD with raw-token MDM
    /// and EDGE minorities.
    pub fn text_to_motion() -> Self {
        Self {
            entries: vec![
                (ModelKind::Mld, 0.6, 4.0),
                (ModelKind::Mdm, 0.25, 4.0),
                (ModelKind::Edge, 0.15, 4.0),
            ],
        }
    }

    /// Single-tenant text-to-video traffic (VideoCrafter2) — the
    /// working-set-exceeding workload the sharding comparison serves: its
    /// per-iteration weight footprint is far past one instance's GSC.
    pub fn text_to_video() -> Self {
        Self {
            entries: vec![(ModelKind::VideoCrafter2, 1.0, 5.0)],
        }
    }

    /// Pathological size-skew traffic: a VideoCrafter2 minority whose
    /// working set dwarfs the GSC next to a latent-MLD majority that fits
    /// many times over. Refill costs differ by orders of magnitude, so this
    /// is the mix that separates cost-aware eviction from LRU (the
    /// multi-tenant mix's footprints are too alike to distinguish them).
    pub fn size_skew() -> Self {
        Self {
            entries: vec![
                (ModelKind::VideoCrafter2, 0.3, 6.0),
                (ModelKind::Mld, 0.7, 3.0),
            ],
        }
    }

    /// Mixed multi-tenant traffic across modalities, with tighter SLOs on
    /// the interactive motion models than on the heavy image model.
    pub fn multi_tenant() -> Self {
        Self {
            entries: vec![
                (ModelKind::Mld, 0.4, 3.0),
                (ModelKind::Mdm, 0.2, 3.0),
                (ModelKind::MakeAnAudio, 0.2, 4.0),
                (ModelKind::StableDiffusion, 0.2, 6.0),
            ],
        }
    }

    /// The models the mix can emit.
    pub fn kinds(&self) -> Vec<ModelKind> {
        self.entries.iter().map(|&(k, _, _)| k).collect()
    }

    /// SLO multiplier of `kind` (1.0 if the mix does not contain it).
    pub fn slo_multiplier(&self, kind: ModelKind) -> f64 {
        self.entries
            .iter()
            .find(|&&(k, _, _)| k == kind)
            .map(|&(_, _, m)| m)
            .unwrap_or(1.0)
    }

    /// Samples one model kind by weight.
    fn sample(&self, rng: &mut StdRng) -> ModelKind {
        let total: f64 = self.entries.iter().map(|&(_, w, _)| w).sum();
        let mut u = rng.random_range(0.0f64..1.0) * total;
        for &(kind, w, _) in &self.entries {
            if u < w {
                return kind;
            }
            u -= w;
        }
        self.entries.last().expect("non-empty mix").0
    }
}

/// Full trace specification.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Arrival-process shape.
    pub pattern: TrafficPattern,
    /// Trace horizon (ms); arrivals stop after this point.
    pub horizon_ms: f64,
    /// RNG seed: identical seeds give identical traces.
    pub seed: u64,
    /// Model mix.
    pub mix: WorkloadMix,
}

impl TraceConfig {
    /// Checks that the trace can be drawn: the horizon, every rate and the
    /// burst multiplier finite and `>= 0`, the mean dwell finite and
    /// `> 0`, `trough_frac` in `[0, 1]`, and the mix non-empty with finite
    /// weights `>= 0` of positive sum and finite SLO multipliers `> 0`.
    /// Otherwise a NaN or infinite horizon yields arrivals without end, a
    /// negative or NaN rate silently yields none, and an empty mix panics
    /// at the first draw. [`ArrivalStream::new`] — the one place arrivals
    /// are drawn from, and so the first step of
    /// [`crate::ServeSimulator::run`] — makes this check and panics on
    /// failure.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let non_negative = |v: f64| v.is_finite() && v >= 0.0;
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let entries = &self.mix.entries;
        let weights = || entries.iter().map(|&(_, w, _)| w);
        let mut rules = vec![("horizon_ms", non_negative(self.horizon_ms))];
        match self.pattern {
            TrafficPattern::Poisson { rate_rps } => {
                rules.push(("rate_rps", non_negative(rate_rps)))
            }
            TrafficPattern::Bursty {
                rate_rps,
                burst_multiplier,
                mean_dwell_ms,
            } => rules.extend([
                ("rate_rps", non_negative(rate_rps)),
                ("burst_multiplier", non_negative(burst_multiplier)),
                ("mean_dwell_ms", positive(mean_dwell_ms)),
            ]),
            TrafficPattern::Diurnal {
                peak_rps,
                trough_frac,
            } => rules.extend([
                ("peak_rps", non_negative(peak_rps)),
                ("trough_frac", (0.0..=1.0).contains(&trough_frac)),
            ]),
        }
        rules.extend([
            ("mix", !entries.is_empty()),
            (
                "mix weight",
                weights().all(non_negative) && weights().sum::<f64>() > 0.0,
            ),
            (
                "mix SLO multiplier",
                entries.iter().all(|&(_, _, m)| positive(m)),
            ),
        ]);
        match rules.into_iter().find(|&(_, ok)| !ok) {
            Some((field, _)) => Err(ConfigError::InvalidTrace { field }),
            None => Ok(()),
        }
    }
}

/// One arrival event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival time (ms).
    pub at_ms: f64,
    /// Requested model.
    pub model: ModelKind,
}

/// Exponential variate with mean `mean` (inversion; `u ∈ [0,1)`).
pub(crate) fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random_range(0.0f64..1.0);
    -(1.0 - u).ln() * mean
}

/// Per-pattern generator state of an [`ArrivalStream`].
#[derive(Debug, Clone)]
enum StreamState {
    /// Next candidate arrival instant (ms).
    Poisson { next_ms: f64 },
    /// Inside one MMPP dwell segment: the segment's end, its arrival
    /// stream's mean gap, the next candidate instant, and whether the
    /// *current* segment is a burst (toggles at each segment end).
    Bursty {
        segment_end_ms: f64,
        mean_gap_ms: f64,
        next_ms: f64,
        bursting: bool,
    },
    /// Next candidate instant of the peak-rate stream to thin.
    Diurnal { next_ms: f64 },
}

/// A lazily generated arrival stream, sorted by time: one arrival at a
/// time, in O(1) memory — the cluster loop threads a million-request trace
/// through this without ever materializing it (collect it where a test or
/// tool needs the whole trace).
///
/// Deterministic: the same config (including seed) yields the same
/// stream, and the RNG draw order is identical to the historical batch
/// generator's, so pre-existing fixed-seed goldens are unaffected.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    rng: StdRng,
    pattern: TrafficPattern,
    mix: WorkloadMix,
    horizon_ms: f64,
    state: StreamState,
    yielded: usize,
}

impl ArrivalStream {
    /// Opens the stream of `config`'s arrivals.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message when `config` fails
    /// [`TraceConfig::validate`].
    pub fn new(config: &TraceConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid serving trace: {e}");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let state = match config.pattern {
            TrafficPattern::Poisson { rate_rps } => {
                let mean_gap_ms = 1000.0 / rate_rps.max(1e-9);
                StreamState::Poisson {
                    next_ms: exp_sample(&mut rng, mean_gap_ms),
                }
            }
            // The first dwell segment is drawn lazily (segment end 0.0
            // forces a segment refresh on the first pull), keeping every
            // draw in the iterator body.
            TrafficPattern::Bursty { .. } => StreamState::Bursty {
                segment_end_ms: 0.0,
                mean_gap_ms: f64::INFINITY,
                next_ms: f64::INFINITY,
                bursting: true,
            },
            TrafficPattern::Diurnal { peak_rps, .. } => {
                let mean_gap_ms = 1000.0 / peak_rps.max(1e-9);
                StreamState::Diurnal {
                    next_ms: exp_sample(&mut rng, mean_gap_ms),
                }
            }
        };
        Self {
            rng,
            pattern: config.pattern,
            mix: config.mix.clone(),
            horizon_ms: config.horizon_ms,
            state,
            yielded: 0,
        }
    }

    /// Arrivals yielded so far.
    pub fn yielded(&self) -> usize {
        self.yielded
    }
}

impl Iterator for ArrivalStream {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let horizon = self.horizon_ms;
        let out = match (&mut self.state, self.pattern) {
            (StreamState::Poisson { next_ms }, TrafficPattern::Poisson { rate_rps }) => {
                let mean_gap_ms = 1000.0 / rate_rps.max(1e-9);
                if *next_ms >= horizon {
                    return None;
                }
                let at_ms = *next_ms;
                let model = self.mix.sample(&mut self.rng);
                *next_ms += exp_sample(&mut self.rng, mean_gap_ms);
                Arrival { at_ms, model }
            }
            (
                StreamState::Bursty {
                    segment_end_ms,
                    mean_gap_ms,
                    next_ms,
                    bursting,
                },
                TrafficPattern::Bursty {
                    rate_rps,
                    burst_multiplier,
                    mean_dwell_ms,
                },
            ) => loop {
                if *next_ms < *segment_end_ms {
                    let at_ms = *next_ms;
                    let model = self.mix.sample(&mut self.rng);
                    *next_ms += exp_sample(&mut self.rng, *mean_gap_ms);
                    break Arrival { at_ms, model };
                }
                // Segment exhausted: open the next dwell (calm and burst
                // alternate; `bursting` holds the *previous* segment's
                // state and toggles here, so the first segment is calm).
                if *segment_end_ms >= horizon {
                    return None;
                }
                let t = *segment_end_ms;
                let dwell = exp_sample(&mut self.rng, mean_dwell_ms);
                *segment_end_ms = (t + dwell).min(horizon);
                *bursting = !*bursting;
                let rate = if *bursting {
                    rate_rps * burst_multiplier
                } else {
                    rate_rps
                };
                *mean_gap_ms = 1000.0 / rate.max(1e-9);
                *next_ms = t + exp_sample(&mut self.rng, *mean_gap_ms);
            },
            (
                StreamState::Diurnal { next_ms },
                TrafficPattern::Diurnal {
                    peak_rps,
                    trough_frac,
                },
            ) => {
                // Thinning against the peak rate; the acceptance
                // probability follows the raised-cosine (sin²) profile.
                let mean_gap_ms = 1000.0 / peak_rps.max(1e-9);
                loop {
                    if *next_ms >= horizon {
                        return None;
                    }
                    let t = *next_ms;
                    let phase = (std::f64::consts::PI * t / horizon).sin();
                    let accept = trough_frac + (1.0 - trough_frac) * phase * phase;
                    let accepted = self.rng.random_range(0.0f64..1.0) < accept;
                    let model = if accepted {
                        Some(self.mix.sample(&mut self.rng))
                    } else {
                        None
                    };
                    *next_ms += exp_sample(&mut self.rng, mean_gap_ms);
                    if let Some(model) = model {
                        break Arrival { at_ms: t, model };
                    }
                }
            }
            _ => unreachable!("stream state always matches its pattern"),
        };
        self.yielded += 1;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_config(seed: u64) -> TraceConfig {
        TraceConfig {
            pattern: TrafficPattern::Poisson { rate_rps: 200.0 },
            horizon_ms: 5_000.0,
            seed,
            mix: WorkloadMix::text_to_motion(),
        }
    }

    #[test]
    fn validate_rejects_each_invalid_field() {
        let trace = |pattern, horizon_ms, entries| TraceConfig {
            pattern,
            horizon_ms,
            seed: 1,
            mix: WorkloadMix { entries },
        };
        let poisson = |rate_rps| TrafficPattern::Poisson { rate_rps };
        let bursty = |burst_multiplier, mean_dwell_ms| TrafficPattern::Bursty {
            rate_rps: 10.0,
            burst_multiplier,
            mean_dwell_ms,
        };
        let diurnal = |peak_rps, trough_frac| TrafficPattern::Diurnal {
            peak_rps,
            trough_frac,
        };
        let mix = WorkloadMix::text_to_motion().entries;
        let mld = |weight, slo| vec![(ModelKind::Mld, weight, slo)];
        for valid in [poisson(0.0), bursty(4.0, 100.0), diurnal(10.0, 1.0)] {
            assert_eq!(trace(valid, 0.0, mix.clone()).validate(), Ok(()));
        }
        for (field, bad) in [
            ("horizon_ms", trace(poisson(1.0), f64::NAN, mix.clone())),
            (
                "horizon_ms",
                trace(poisson(1.0), f64::INFINITY, mix.clone()),
            ),
            ("horizon_ms", trace(poisson(1.0), -1.0, mix.clone())),
            ("rate_rps", trace(poisson(-1.0), 1e3, mix.clone())),
            ("rate_rps", trace(poisson(f64::NAN), 1e3, mix.clone())),
            ("rate_rps", trace(poisson(f64::INFINITY), 1e3, mix.clone())),
            (
                "burst_multiplier",
                trace(bursty(f64::NAN, 1.0), 1e3, mix.clone()),
            ),
            ("mean_dwell_ms", trace(bursty(4.0, 0.0), 1e3, mix.clone())),
            ("peak_rps", trace(diurnal(-5.0, 0.3), 1e3, mix.clone())),
            ("trough_frac", trace(diurnal(10.0, 1.5), 1e3, mix.clone())),
            ("mix", trace(poisson(1.0), 1e3, Vec::new())),
            ("mix weight", trace(poisson(1.0), 1e3, mld(-1.0, 4.0))),
            ("mix weight", trace(poisson(1.0), 1e3, mld(0.0, 4.0))),
            (
                "mix SLO multiplier",
                trace(poisson(1.0), 1e3, mld(1.0, 0.0)),
            ),
        ] {
            assert_eq!(
                bad.validate(),
                Err(ConfigError::InvalidTrace { field }),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let stream = |seed| ArrivalStream::new(&poisson_config(seed));
        assert!(stream(7).eq(stream(7)));
        assert!(stream(7).ne(stream(8)));
    }

    #[test]
    fn traces_are_sorted_and_bounded() {
        for pattern in [
            TrafficPattern::Poisson { rate_rps: 100.0 },
            TrafficPattern::Bursty {
                rate_rps: 50.0,
                burst_multiplier: 4.0,
                mean_dwell_ms: 300.0,
            },
            TrafficPattern::Diurnal {
                peak_rps: 150.0,
                trough_frac: 0.2,
            },
        ] {
            let trace: Vec<Arrival> = ArrivalStream::new(&TraceConfig {
                pattern,
                horizon_ms: 4_000.0,
                seed: 11,
                mix: WorkloadMix::multi_tenant(),
            })
            .collect();
            assert!(!trace.is_empty(), "{}", pattern.name());
            for w in trace.windows(2) {
                assert!(w[0].at_ms <= w[1].at_ms);
            }
            assert!(trace.iter().all(|a| a.at_ms < 4_000.0));
        }
    }

    #[test]
    fn poisson_rate_is_respected() {
        let trace: Vec<Arrival> = ArrivalStream::new(&poisson_config(3)).collect();
        let rps = trace.len() as f64 / 5.0;
        assert!((rps - 200.0).abs() < 30.0, "measured {rps} rps");
    }

    #[test]
    fn mean_rps_scaling_round_trips() {
        for pattern in [
            TrafficPattern::Poisson { rate_rps: 10.0 },
            TrafficPattern::Bursty {
                rate_rps: 10.0,
                burst_multiplier: 5.0,
                mean_dwell_ms: 100.0,
            },
            TrafficPattern::Diurnal {
                peak_rps: 10.0,
                trough_frac: 0.4,
            },
        ] {
            let scaled = pattern.with_mean_rps(42.0);
            assert!(
                (scaled.mean_rps() - 42.0).abs() < 1e-9,
                "{}",
                pattern.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot scale a traffic pattern of mean 0 rps to 5 rps")]
    fn scaling_a_zero_mean_pattern_panics() {
        let _ = TrafficPattern::Poisson { rate_rps: 0.0 }.with_mean_rps(5.0);
    }

    #[test]
    #[should_panic(expected = "invalid serving trace: trace horizon_ms is NaN")]
    fn opening_a_stream_with_a_nan_horizon_panics() {
        let _ = ArrivalStream::new(&TraceConfig {
            horizon_ms: f64::NAN,
            ..poisson_config(1)
        });
    }

    #[test]
    fn bursty_mean_rate_tracks_formula() {
        let pattern = TrafficPattern::Bursty {
            rate_rps: 60.0,
            burst_multiplier: 4.0,
            mean_dwell_ms: 250.0,
        };
        let trace: Vec<Arrival> = ArrivalStream::new(&TraceConfig {
            pattern,
            horizon_ms: 20_000.0,
            seed: 5,
            mix: WorkloadMix::text_to_image(),
        })
        .collect();
        let rps = trace.len() as f64 / 20.0;
        // Mean of 60 and 240 with equal dwell: 150 rps.
        assert!(
            (rps - pattern.mean_rps()).abs() < 0.2 * pattern.mean_rps(),
            "{rps}"
        );
    }

    #[test]
    fn mix_respects_weights() {
        let trace: Vec<Arrival> = ArrivalStream::new(&TraceConfig {
            pattern: TrafficPattern::Poisson { rate_rps: 500.0 },
            horizon_ms: 10_000.0,
            seed: 9,
            mix: WorkloadMix::text_to_motion(),
        })
        .collect();
        let mld = trace.iter().filter(|a| a.model == ModelKind::Mld).count();
        let frac = mld as f64 / trace.len() as f64;
        assert!((frac - 0.6).abs() < 0.05, "MLD fraction {frac}");
    }
}
