//! `traffic_gen` refuses a bad command line with exit code 2 and its
//! usage line instead of falling back to defaults.

use std::path::PathBuf;
use std::process::{Command, Output};

fn traffic_gen(args: &[&str], dir: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_traffic_gen"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("traffic_gen runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("debunk-traffic-gen-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bad_command_lines_exit_2_with_usage_and_write_nothing() {
    let dir = scratch("bad");
    let cases: &[&[&str]] = &[
        &[],
        &["nosuch"],
        &["ustc", "--seed", "abc"],
        &["ustc", "--seed"],
        &["ustc", "--shards", "x", "--out-dir", "shards"],
        &["ustc", "--shards", "0", "--out-dir", "shards"],
        &["ustc", "--shards", "2"],
        &["ustc", "--out-dir", "shards"],
        &["ustc", "--gen-threads", "2"],
        &["ustc", "--flows-per-class", "-3"],
        &["ustc", "--frobnicate"],
        &["ustc", "--out", "t.pcap", "extra"],
    ];
    for args in cases {
        let out = traffic_gen(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: traffic_gen <iscx|ustc|cstnet>"), "{args:?}: {stderr}");
        for flag in ["--shards N", "--out-dir DIR", "--gen-threads N"] {
            assert!(stderr.contains(flag), "{args:?}: usage omits {flag}: {stderr}");
        }
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "a refused command line wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn good_command_line_writes_the_pcap_and_labels() {
    let dir = scratch("good");
    let args =
        ["iscx", "--seed", "7", "--flows-per-class", "1", "--out", "t.pcap", "--labels", "l.csv"];
    let out = traffic_gen(&args, &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::fs::metadata(dir.join("t.pcap")).unwrap().len() > 24, "pcap has packets");
    let csv = std::fs::read_to_string(dir.join("l.csv")).unwrap();
    assert!(csv.starts_with("packet_index,class_id,class_name,flow_id,timestamp\n"));
    assert!(csv.lines().count() > 1);
    std::fs::remove_dir_all(&dir).ok();
}
