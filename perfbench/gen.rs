//! Seeded input generators. The benchmark derives every input from its
//! `--seed`; the program under test only ever sees the generated wire
//! documents.

use crate::Workload;
use vgrid_simcore::SimRng;

const DAY: u64 = 24 * 3600;

/// Distinct inputs the sessions of a seeded workload cycle through. A
/// run covers several inputs, so its medians do not hinge on one
/// input's stragglers or allocation pattern, and most inputs still run
/// more than once in a run, so the benchmark can check that repeats
/// agree.
pub const INPUTS: usize = 8;

/// One batch grid campaign: pool size, project and churn shape.
struct GridShape {
    volunteers: u32,
    workunits: u32,
    wu_ref_secs: f64,
    replication: u32,
    deadline_days: u64,
    horizon_days: u64,
    churn: f64,
    migration: bool,
}

fn grid_shape(w: Workload) -> Option<GridShape> {
    let churn = GridShape {
        volunteers: 15_000,
        workunits: 7_500,
        wu_ref_secs: 4.0 * 3600.0,
        replication: 2,
        deadline_days: 7,
        horizon_days: 14,
        churn: 1.0,
        migration: false,
    };
    match w {
        // The million-host month at 1/25 scale: month-long single-copy
        // tasks with a whole-horizon deadline and no owner churn.
        Workload::GridMonth => Some(GridShape {
            volunteers: 40_000,
            workunits: 400,
            wu_ref_secs: 1_440_000.0,
            replication: 1,
            deadline_days: 30,
            horizon_days: 30,
            churn: 0.0,
            migration: false,
        }),
        Workload::GridChurn => Some(churn),
        // The churn project on a smaller pool with the full migration
        // policy: the evacuation audits grow with pool size squared.
        Workload::GridMigrate => Some(GridShape {
            volunteers: 3_500,
            workunits: 1_750,
            migration: true,
            ..churn
        }),
        Workload::PaperReport | Workload::ServeMix => None,
    }
}

fn seed_hex(rng: &mut SimRng) -> String {
    format!("0x{:x}", rng.next_u64())
}

/// The generator stream of input `index` (taken modulo [`INPUTS`]) of
/// workload `w` under `seed`.
fn input_rng(w: Workload, seed: u64, index: usize) -> SimRng {
    SimRng::new(seed)
        .fork(w as u64)
        .fork((index % INPUTS) as u64)
}

/// Input `index` of a grid workload: one wire request. `None` for the
/// workloads that are not one campaign.
pub fn grid_request(w: Workload, seed: u64, index: usize) -> Option<String> {
    let s = grid_shape(w)?;
    let mut rng = input_rng(w, seed, index);
    let migration = if s.migration {
        r#","migration":{"rescue":true,"evacuate":true}"#
    } else {
        ""
    };
    Some(format!(
        concat!(
            r#"{{"spec_version":1,"label":"{label}","seed":"{seed}","horizon_secs":{horizon},"#,
            r#""project":{{"workunits":{wu},"wu_ref_secs":{wu_secs},"replication":{rep},"quorum":{rep},"deadline_secs":{deadline}}},"#,
            r#""pool":{{"volunteers":{hosts}}},"#,
            r#""deploy":{{"mode":"qemu","image_bytes":314572800{migration}}},"#,
            r#""churn":{{"level":{churn:?}}}}}"#
        ),
        label = w.name(),
        seed = seed_hex(&mut rng),
        horizon = s.horizon_days * DAY,
        wu = s.workunits,
        wu_secs = s.wu_ref_secs,
        rep = s.replication,
        deadline = s.deadline_days * DAY,
        hosts = s.volunteers,
        migration = migration,
        churn = s.churn,
    ))
}

/// Base configurations the served mix draws from.
pub const SERVE_CONFIGS: usize = 150;
/// Horizons each base configuration is crossed with, in days.
pub const SERVE_HORIZON_DAYS: [u64; 3] = [3, 7, 14];
/// Tenants in the served mix, one client thread each.
pub const SERVE_TENANTS: usize = 2;
/// Requests each tenant sends per session.
pub const SERVE_REQUESTS_PER_TENANT: usize = 100;

fn shuffle<T>(rng: &mut SimRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Input `index` of the served mix: for each tenant, the request bodies
/// it sends in order.
///
/// The [`SERVE_CONFIGS`] base configurations are stratified: pool sizes
/// spread evenly over 200-2,000 hosts and project sizes over 50-400
/// work units, and each of four deploy modes and five churn levels
/// (0-2) is used equally often. The seed pairs these up, picks every
/// campaign seed and orders the requests, so the total work of a mix
/// barely depends on the seed while every request differs. Every
/// configuration is requested once and the remainder again, each
/// crossed with a horizon from [`SERVE_HORIZON_DAYS`] (used equally
/// often), so a later request may share a configuration, and with it
/// warm cache state, with an earlier one.
pub fn serve_bodies(seed: u64, index: usize) -> Vec<Vec<String>> {
    const MODES: [&str; 4] = ["native", "vmplayer", "qemu", "virtualbox"];
    let n = SERVE_CONFIGS;
    let mut rng = input_rng(Workload::ServeMix, seed, index);
    let mut modes: Vec<&str> = (0..n).map(|i| MODES[i % MODES.len()]).collect();
    let mut churn: Vec<f64> = (0..n).map(|i| (i % 5) as f64 / 2.0).collect();
    let mut workunits: Vec<usize> = (0..n).map(|i| 50 + 350 * i / (n - 1)).collect();
    shuffle(&mut rng, &mut modes);
    shuffle(&mut rng, &mut churn);
    shuffle(&mut rng, &mut workunits);
    let configs: Vec<String> = (0..n)
        .map(|i| {
            format!(
                concat!(
                    r#""label":"mix-{i}","seed":"{seed}","#,
                    r#""project":{{"workunits":{wu}}},"pool":{{"volunteers":{hosts}}},"#,
                    r#""deploy":{{"mode":"{mode}"}},"churn":{{"level":{churn:?}}}"#
                ),
                i = i,
                seed = seed_hex(&mut rng),
                wu = workunits[i],
                hosts = 200 + 1_800 * i / (n - 1),
                mode = modes[i],
                churn = churn[i],
            )
        })
        .collect();
    let total = SERVE_TENANTS * SERVE_REQUESTS_PER_TENANT;
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut rng, &mut order);
    let mut picks: Vec<usize> = (0..total).map(|k| order[k % n]).collect();
    let mut horizons: Vec<u64> = (0..total)
        .map(|k| SERVE_HORIZON_DAYS[k % SERVE_HORIZON_DAYS.len()])
        .collect();
    shuffle(&mut rng, &mut picks);
    shuffle(&mut rng, &mut horizons);
    let mut tenants = vec![Vec::new(); SERVE_TENANTS];
    for (k, (config, days)) in picks.iter().zip(horizons).enumerate() {
        tenants[k % SERVE_TENANTS].push(format!(
            r#"{{"spec_version":1,"horizon_secs":{},{}}}"#,
            days * DAY,
            configs[*config]
        ));
    }
    tenants
}
