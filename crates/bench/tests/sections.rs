//! The one determinism check of the `repro` CLI (DESIGN.md §4d): every
//! section listed by `--list-sections`, and `serve --bench`, prints the
//! same stdout and writes the same files at `--jobs 1` and `--jobs 4`,
//! stdout never names the output directory, and unknown sections and
//! flags are usage errors (exit 2).

use std::collections::BTreeMap;
use std::process::{Command, Output};

/// Files that hold host timings: only their presence is compared.
const HOST_TIMED: [&str; 2] = ["BENCH_sweep.json", "BENCH_serve.json"];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// What one run printed and wrote.
struct Run {
    stdout: String,
    files: BTreeMap<String, Vec<u8>>,
}

/// Runs `repro --scale smoke --csv DIR <flags> <section>` and collects its
/// stdout and every file it wrote under DIR.
fn run(section: &str, flags: &[&str]) -> Run {
    let tag = format!("{section}{}", flags.join("")).replace('-', "");
    let dir = std::env::temp_dir().join(format!("lcm-sections-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let mut args = vec!["--scale", "smoke", "--csv", dir_arg];
    args.extend(flags);
    args.push(section);
    let out = repro(&args);
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
    assert!(
        !stdout.contains(dir_arg),
        "repro {args:?} names its --csv path on stdout"
    );
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).into_iter().flatten() {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let bytes = if HOST_TIMED.contains(&name.as_str()) {
            Vec::new()
        } else {
            std::fs::read(&path).expect("readable file")
        };
        files.insert(name, bytes);
    }
    std::fs::remove_dir_all(&dir).ok();
    Run { stdout, files }
}

/// Panics naming the first difference between two runs.
fn assert_same(label: &str, a: &Run, b: &Run) {
    if let Some((i, (x, y))) = a
        .stdout
        .lines()
        .zip(b.stdout.lines())
        .enumerate()
        .find(|(_, (x, y))| x != y)
    {
        panic!("{label}: stdout line {} differs:\n  {x}\n  {y}", i + 1);
    }
    assert_eq!(a.stdout, b.stdout, "{label}: stdout differs in length");
    assert_eq!(
        a.files.keys().collect::<Vec<_>>(),
        b.files.keys().collect::<Vec<_>>(),
        "{label}: different files written"
    );
    for (name, bytes) in &a.files {
        assert!(bytes == &b.files[name], "{label}: {name} differs");
    }
}

/// The section names `--list-sections` prints, `all` included.
fn listed_sections() -> Vec<String> {
    let out = repro(&["--list-sections"]);
    assert!(out.status.success());
    String::from_utf8(out.stderr)
        .expect("utf-8")
        .lines()
        .skip_while(|l| !l.starts_with("sections"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn every_section_is_byte_identical_across_worker_counts() {
    let sections = listed_sections();
    assert!(sections.len() > 20, "sections listed: {sections:?}");
    let legs = sections
        .iter()
        .map(|s| (s.as_str(), &[][..]))
        .chain([("serve", &["--bench"][..])]);
    for (section, extra) in legs {
        let serial = run(section, &[&["--jobs", "1"], extra].concat());
        let pooled = run(section, &[&["--jobs", "4"], extra].concat());
        let label = format!("{section} {} at --jobs 1 vs 4", extra.join(" "));
        assert_same(&label, &serial, &pooled);
    }
}

#[test]
fn unknown_sections_and_flags_exit_2_with_the_section_list() {
    for args in [
        &["no-such-section"][..],
        &["--no-such-flag"],
        &["--jobs", "0"],
        &["--sim-threads", "2"],
        &["par"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        if args[0] != "--jobs" {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("table1"), "repro {args:?} lists sections");
        }
    }
}
