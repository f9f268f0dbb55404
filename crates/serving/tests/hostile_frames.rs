//! Hostile capture input end to end: truncated and bit-flipped real
//! frames, pure noise, and timestamps that are NaN, infinite, negative
//! or arbitrary bit patterns go through `serve()` (parse → flow table →
//! policy → models → verdicts). The engine must never panic, must count
//! every frame, must account for every flow it opened, and must stay
//! byte-identical across worker counts.

use dataset::record::Prepared;
use debunk_core::obs::{LogFormat, ObsSink};
use proptest::prelude::*;
use serving::engine::{serve, ServeOptions, ServeStats};
use serving::policy::Policy;
use serving::reload::ReloadSource;
use serving::source::{ReplayPacket, SynthSpec};
use serving::ModelBundle;
use std::sync::OnceLock;

fn bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let spec = SynthSpec::parse("ustc:3:1").unwrap();
        ModelBundle::train(&Prepared::from_trace(&spec.trace()), 42)
    })
}

/// Real frames to mangle: valid Ethernet/IP/TCP/UDP layouts, so
/// truncations and bit flips land inside headers the parser reads.
fn frame_pool() -> &'static Vec<Vec<u8>> {
    static POOL: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    POOL.get_or_init(|| {
        SynthSpec::parse("ustc:5:1").unwrap().replay().into_iter().map(|p| p.frame).collect()
    })
}

/// One hostile packet from raw draws: `shape` picks an intact, truncated,
/// bit-flipped or pure-noise frame; `clock` picks a timestamp that is
/// ordinary, NaN (either sign), infinite, negative, or any bit pattern.
fn hostile_packet(pick: usize, shape: u8, clock: u8, r: u64, base_ts: f64) -> ReplayPacket {
    let real = &frame_pool()[pick % frame_pool().len()];
    let frame = match shape {
        0 => real.clone(),
        1 => real[..(r as usize) % (real.len() + 1)].to_vec(),
        2 => {
            let mut f = real.clone();
            for k in 0..=(r % 4) {
                let bit = (r >> (8 + 12 * k)) as usize % (f.len() * 8);
                f[bit / 8] ^= 1 << (bit % 8);
            }
            f
        }
        _ => (0..(r % 97)).map(|i| (r.rotate_left(i as u32 * 7) ^ i) as u8).collect(),
    };
    let ts = match clock {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -base_ts,
        5 => f64::from_bits(r),
        _ => base_ts,
    };
    ReplayPacket { ts, frame }
}

fn run(packets: &[ReplayPacket], workers: usize) -> (Vec<u8>, ServeStats) {
    let policy =
        Policy::parse("*:tcp:443 -> encoder\n*:udp -> knn\n*:tcp -> gbdt\ndefault -> forest\n")
            .unwrap();
    let opts = ServeOptions { batch: 4, idle_timeout: 2.0, workers };
    let sink = ObsSink::stderr(LogFormat::Text);
    let mut out = Vec::new();
    let stats =
        serve(bundle(), &policy, packets, &opts, ReloadSource::None, &mut out, &sink).unwrap();
    (out, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hostile_frames_are_served_or_refused_never_panicked(
        draws in proptest::collection::vec(
            (0usize..4096, 0u8..4, 0u8..12, any::<u64>(), -10.0f64..40.0),
            0..120,
        )
    ) {
        let packets: Vec<ReplayPacket> = draws
            .iter()
            .map(|&(pick, shape, clock, r, ts)| hostile_packet(pick, shape, clock, r, ts))
            .collect();
        let (one, s1) = run(&packets, 1);
        prop_assert_eq!(s1.packets, packets.len() as u64, "every frame is counted");
        prop_assert!(s1.non_ip <= s1.packets);
        prop_assert_eq!(s1.verdicts + s1.dropped, s1.flows, "every opened flow is accounted for");
        let (two, s2) = run(&packets, 2);
        prop_assert_eq!(s1, s2);
        prop_assert!(one == two, "verdict bytes differ between 1 and 2 workers");
    }
}

/// The generator reaches both outcomes the property quantifies over:
/// frames refused as non-IP, and flows that get a verdict.
#[test]
fn hostile_streams_mix_refused_frames_and_verdicts() {
    let packets: Vec<ReplayPacket> = (0..400u64)
        .map(|i| {
            let r = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            hostile_packet(i as usize * 13, (i % 4) as u8, (i % 12) as u8, r, i as f64 * 0.1)
        })
        .collect();
    let (_, stats) = run(&packets, 1);
    assert!(stats.non_ip > 0, "{stats:?}");
    assert!(stats.verdicts > 0, "{stats:?}");
}
