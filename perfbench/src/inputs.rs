//! Seeded workload inputs. Everything the program under test receives is
//! generated here from the workload seed: GPS walks (paper Fig. 13) and
//! the fixed linear-Gaussian evidence chain.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uncertain_core::{EvalStrategy, HypothesisOutcome, Uncertain};
use uncertain_gps::{
    priors, uncertain_speed, GeoCoordinate, GpsReading, SimulatedGps, WalkSimulator,
};

use crate::stats::mix;

/// The GPS-Walking target speed (paper Fig. 5).
pub const TARGET_MPH: f64 = 4.0;
/// Horizontal accuracy ε of the simulated fixes, in meters.
pub const GPS_EPSILON_M: f64 = 4.0;
/// Chain length of the evidence network (`3n + 9` = 159 nodes).
pub const CHAIN_N: usize = 50;
/// Walk steps generated at a time; a walker generates its next chunk only
/// when it reaches the end of the current one, so a faster program never
/// runs out of distinct inputs.
const CHUNK_STEPS: u64 = 512;
/// Fig. 13 error dynamics: strongly time-correlated drift with rare
/// multipath glitches.
const ERROR_CORRELATION: f64 = 0.85;
const GLITCH_RATE: f64 = 0.01;

/// One conditional to ask: `Pr[cond] > threshold` on `tenant`'s session.
/// `tag` names the query within its tenant's stream, so a replay can
/// rebuild exactly the same network.
pub struct Query {
    pub tenant: u64,
    pub tag: u64,
    pub cond: Uncertain<bool>,
    pub threshold: f64,
    pub strategy: Option<EvalStrategy>,
}

/// A closed-loop request stream with a fixed number of slots, each of
/// which has at most one query outstanding.
pub trait Source {
    /// Concurrent slots (requests in flight).
    fn slots(&self) -> usize;
    /// The next query of `slot`, given the outcome of its previous one
    /// (`None` at the start or after a failed request).
    fn next(&mut self, slot: usize, prev: Option<&HypothesisOutcome>) -> Query;
    /// The query `tag` of `tenant` again. Within one tenant, replays ask
    /// in the original order.
    fn rebuild(&mut self, tenant: u64, tag: u64) -> Query;
    /// Whether a slot always asks a given tenant the identical question,
    /// so a client may reuse the request frame it encoded the first time.
    fn repeats(&self) -> bool {
        false
    }
}

/// Walkers per workload. Their nominal speeds are fixed, spread evenly
/// over `TARGET_MPH ± 1`, so every seed asks the same mix of easy and
/// borderline questions; the seed draws the trajectories and GPS errors.
pub const WALKERS: usize = 16;

/// Nominal speed of walker `w` of `WALKERS`.
fn walker_speed(w: usize) -> f64 {
    TARGET_MPH - 1.0 + 2.0 * (w as f64 + 0.5) / WALKERS as f64
}

/// One seeded walk at a nominal speed, with a GPS fix per second,
/// generated lazily chunk by chunk.
pub struct Walk {
    seed: u64,
    speed_mph: f64,
    chunk: u64,
    fixes: Vec<GpsReading>,
    end: GeoCoordinate,
}

impl Walk {
    pub fn new(seed: u64, speed_mph: f64) -> Self {
        let mut walk = Self {
            seed,
            speed_mph,
            chunk: 0,
            fixes: Vec::new(),
            end: GeoCoordinate::new(47.6062, -122.3321),
        };
        walk.load(0);
        walk
    }

    fn load(&mut self, chunk: u64) {
        let positions = WalkSimulator::new(
            self.speed_mph,
            CHUNK_STEPS as usize,
            mix(self.seed ^ mix(chunk)),
        )
        .with_start(self.end)
        .positions();
        let truths: Vec<GeoCoordinate> = positions.iter().map(|p| p.position).collect();
        let sensor = SimulatedGps::new(GPS_EPSILON_M).expect("ε is a valid accuracy");
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ mix(chunk ^ 0x6F1C)));
        self.fixes = sensor.read_sequence(&truths, ERROR_CORRELATION, GLITCH_RATE, &mut rng);
        self.end = *truths.last().expect("a chunk has positions");
        self.chunk = chunk;
    }

    /// The two fixes of `step` (1-based, one second apart). Steps must be
    /// asked for in nondecreasing order.
    pub fn pair(&mut self, step: u64) -> (&GpsReading, &GpsReading) {
        assert!(
            step > self.chunk * CHUNK_STEPS,
            "walk steps go forward only"
        );
        while step > (self.chunk + 1) * CHUNK_STEPS {
            self.load(self.chunk + 1);
        }
        let i = (step - self.chunk * CHUNK_STEPS) as usize;
        (&self.fixes[i - 1], &self.fixes[i])
    }

    /// The raw `Uncertain` speed of `step` (58-node kernel network).
    pub fn speed(&mut self, step: u64) -> Uncertain<f64> {
        let (a, b) = self.pair(step);
        uncertain_speed(a, b, 1.0)
    }
}

/// The `WALKERS` walks of one seed, taken in turn: step `n` is walker
/// `(n − 1) mod WALKERS`'s next second.
pub struct Walks(Vec<Walk>);

impl Walks {
    pub fn new(seed: u64) -> Self {
        Self(
            (0..WALKERS)
                .map(|w| Walk::new(mix(seed ^ mix(w as u64 + 1)), walker_speed(w)))
                .collect(),
        )
    }

    /// The raw speed and its walking-prior posterior (`weight_by` SIR,
    /// which runs on the closure plan) of step `n` (1-based, in order).
    pub fn speeds(&mut self, n: u64) -> (Uncertain<f64>, Uncertain<f64>) {
        let walkers = WALKERS as u64;
        let walk = &mut self.0[((n - 1) % walkers) as usize];
        let (a, b) = walk.pair((n - 1) / walkers + 1);
        (
            uncertain_speed(a, b, 1.0),
            priors::posterior_speed(a, b, 1.0, priors::walking_speed()),
        )
    }
}

/// `GpsWalking::uncertain_action`'s control flow, asked remotely:
/// `Speed > 4` at 0.5, then `Speed < 4` at 0.9 only if the first is false.
/// Slot `w` is walker `w` and tenant `w` (one slot per walker); every
/// query carries a freshly built network.
pub struct GpsSource {
    walkers: Vec<Walker>,
}

struct Walker {
    walk: Walk,
    step: u64,
    second: bool,
    speed: Option<Uncertain<f64>>,
}

impl GpsSource {
    pub fn new(seed: u64, walkers: usize) -> Self {
        Self {
            walkers: (0..walkers)
                .map(|w| Walker {
                    walk: Walk::new(mix(seed ^ mix(w as u64 + 1)), walker_speed(w % WALKERS)),
                    step: 0,
                    second: false,
                    speed: None,
                })
                .collect(),
        }
    }

    fn query(w: &Walker, tenant: u64) -> Query {
        let speed = w.speed.as_ref().expect("a step is loaded");
        let (cond, threshold) = if w.second {
            (speed.lt(TARGET_MPH), 0.9)
        } else {
            (speed.gt(TARGET_MPH), 0.5)
        };
        Query {
            tenant,
            tag: w.step * 2 + u64::from(w.second),
            cond,
            threshold,
            strategy: None,
        }
    }
}

impl Source for GpsSource {
    fn slots(&self) -> usize {
        self.walkers.len()
    }

    fn next(&mut self, slot: usize, prev: Option<&HypothesisOutcome>) -> Query {
        let w = &mut self.walkers[slot];
        let asked_fast = w.step > 0 && !w.second;
        if asked_fast && matches!(prev, Some(o) if !o.accepted) {
            w.second = true;
        } else {
            w.step += 1;
            w.second = false;
            w.speed = Some(w.walk.speed(w.step));
        }
        Self::query(w, slot as u64)
    }

    fn rebuild(&mut self, tenant: u64, tag: u64) -> Query {
        let w = &mut self.walkers[tenant as usize];
        let step = tag / 2;
        if w.step != step || w.speed.is_none() {
            w.step = step;
            w.speed = Some(w.walk.speed(step));
        }
        w.second = tag % 2 == 1;
        Self::query(w, tenant)
    }
}

/// The `3n + 9`-node evidence conditional of `bench_exact` (159 nodes at
/// n = 50): affine chains over two shared Gaussian leaves, compared and
/// conjoined, entirely inside the analytic fragment.
pub fn evidence_chain(n: usize) -> Uncertain<bool> {
    let x = Uncertain::normal(0.0, 1.0).expect("valid normal");
    let y = Uncertain::normal(1.0, 2.0).expect("valid normal");
    let mut left = x.clone();
    let mut right = y.clone();
    for _ in 0..n {
        left = left + &x;
        right = right * 0.99 + &y;
    }
    let a = left.lt(&(right + 40.0 + 8.0 * n as f64));
    let b = (&x + &y).gt(-10.0);
    &a & &b
}

/// Slots cycle over `TENANTS_PER_SLOT` tenants each, re-asking the fixed
/// chain at 0.5 with a per-request `EvalStrategy::Auto`. Slot `s` owns
/// tenants `s, s + slots, …`, so a tenant never has two requests in
/// flight; the seed picks where each slot starts its rotation.
pub struct ExactSource {
    chain: Uncertain<bool>,
    issued: Vec<u64>,
    rotation: Vec<u64>,
}

pub const TENANTS_PER_SLOT: u64 = 4;

impl ExactSource {
    pub fn new(seed: u64, slots: usize) -> Self {
        Self {
            chain: evidence_chain(CHAIN_N),
            issued: vec![0; slots],
            rotation: (0..slots as u64)
                .map(|s| mix(seed ^ mix(s)) % TENANTS_PER_SLOT)
                .collect(),
        }
    }

    fn query(&self, tenant: u64, tag: u64) -> Query {
        Query {
            tenant,
            tag,
            cond: self.chain.clone(),
            threshold: 0.5,
            strategy: Some(EvalStrategy::Auto),
        }
    }
}

impl Source for ExactSource {
    fn slots(&self) -> usize {
        self.issued.len()
    }

    fn next(&mut self, slot: usize, _prev: Option<&HypothesisOutcome>) -> Query {
        let k = self.issued[slot];
        self.issued[slot] += 1;
        let slots = self.issued.len() as u64;
        let tenant = slot as u64 + slots * ((k + self.rotation[slot]) % TENANTS_PER_SLOT);
        self.query(tenant, k)
    }

    fn rebuild(&mut self, tenant: u64, tag: u64) -> Query {
        self.query(tenant, tag)
    }

    fn repeats(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_core::Provenance;
    use uncertain_serve::wire::encode_request;
    use uncertain_serve::{Request, RequestKind};

    /// The first `n` request frames of a source, driving its control flow
    /// with synthetic outcomes that alternate accept and reject.
    fn stream(source: &mut dyn Source, n: usize) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut prev: Vec<Option<HypothesisOutcome>> = vec![None; source.slots()];
        for i in 0..n {
            let slot = i % source.slots();
            let q = source.next(slot, prev[slot].as_ref());
            prev[slot] = Some(HypothesisOutcome {
                threshold: q.threshold,
                accepted: i % 3 == 0,
                conclusive: true,
                samples: 10,
                estimate: 0.5,
                provenance: Provenance::Sampled { samples: 10 },
            });
            let request = Request {
                tenant: q.tenant,
                kind: RequestKind::Evaluate {
                    cond: q.cond,
                    threshold: q.threshold,
                },
                timeout: None,
                strategy: q.strategy,
                trace: None,
            };
            frames.push(encode_request(i as u64, &request).expect("wire-expressible"));
        }
        frames
    }

    #[test]
    fn same_seed_gives_byte_identical_gps_streams() {
        // Long enough to cross a chunk boundary of every walker.
        let n = 2 * 2 * CHUNK_STEPS as usize + 40;
        let a = stream(&mut GpsSource::new(7, 2), n);
        let b = stream(&mut GpsSource::new(7, 2), n);
        assert_eq!(a, b);
        let c = stream(&mut GpsSource::new(8, 2), n);
        assert_ne!(a, c);
    }

    #[test]
    fn same_seed_gives_byte_identical_exact_streams() {
        let a = stream(&mut ExactSource::new(3, 16), 200);
        let b = stream(&mut ExactSource::new(3, 16), 200);
        assert_eq!(a, b);
    }

    #[test]
    fn exact_slots_own_disjoint_tenants() {
        let mut s = ExactSource::new(5, 16);
        let mut owner = std::collections::HashMap::new();
        for k in 0..64 {
            let slot = k % 16;
            let q = s.next(slot, None);
            assert!(q.tenant < 64);
            assert_eq!(*owner.entry(q.tenant).or_insert(slot), slot);
        }
        assert_eq!(owner.len(), 64);
    }

    #[test]
    fn rebuild_reproduces_the_asked_network() {
        let mut live = GpsSource::new(11, 1);
        let mut replay = GpsSource::new(11, 1);
        let rejected = HypothesisOutcome {
            threshold: 0.5,
            accepted: false,
            conclusive: true,
            samples: 10,
            estimate: 0.1,
            provenance: Provenance::Sampled { samples: 10 },
        };
        let mut prev = None;
        for _ in 0..6 {
            let q = live.next(0, prev.as_ref());
            let r = replay.rebuild(q.tenant, q.tag);
            let bytes = |c: &Uncertain<bool>| {
                uncertain_core::WireGraph::from_bool(c)
                    .expect("wire-expressible")
                    .to_bytes()
            };
            assert_eq!(bytes(&q.cond), bytes(&r.cond));
            assert_eq!(q.threshold, r.threshold);
            prev = Some(rejected);
        }
    }
}
