//! Parallel-campaign robustness matrix: `impactc batch --jobs 4` must be
//! observationally identical to a serial run — same summary, same report
//! set — and the crash→resume guarantees of the journal must hold under
//! concurrent unit completion:
//!
//! 1. a campaign killed mid-flight at any journal append leaves a
//!    replayable journal (the single-writer design means only the *tail*
//!    can be torn, never an interior record) and no torn report
//!    artifacts, and
//! 2. `--resume --jobs 4` reproduces the uninterrupted **serial** run's
//!    summary and reports byte-for-byte (modulo `; journal:` lines and
//!    wall-clock fields), because rendering is in canonical unit order
//!    and per-unit timings are journaled, not re-measured.
//!
//! The artifact cache rides the same harness: a bit-flipped cache entry
//! must be detected, quarantined with an incident report, and
//! transparently recompiled — never served.

use std::path::{Path, PathBuf};

mod common;

use common::{
    assert_no_torn_artifacts, assert_staging_scrubbed, batch_args, canon, impactc, snapshot,
    tmp_dir, write_units,
};

/// A killed campaign's journal must still replay: the pool design keeps
/// appends on a single thread, so an abort mid-append can tear only the
/// final record — never interleave records of concurrently-finishing
/// units.
fn assert_journal_replayable(journal: &Path) {
    let text = std::fs::read_to_string(journal).unwrap_or_default();
    if let Err(e) = impact_driver::journal::replay(&text) {
        panic!(
            "killed parallel campaign left an unreplayable journal ({e}): {}",
            journal.display()
        );
    }
}

#[test]
fn parallel_batch_matches_serial_batch_exactly() {
    let dir = tmp_dir("vs-serial");
    let units = write_units(&dir);
    let beta = units[1].clone();

    let serial_report = dir.join("serial-reports");
    let serial_journal = dir.join("serial.journal");
    let serial = impactc(&batch_args(
        &units,
        &beta,
        serial_report.to_str().unwrap(),
        serial_journal.to_str().unwrap(),
    ));
    assert_eq!(serial.code, Some(10), "serial baseline: {}", serial.stderr);

    let par_report = dir.join("par-reports");
    let par_journal = dir.join("par.journal");
    let mut args = batch_args(
        &units,
        &beta,
        par_report.to_str().unwrap(),
        par_journal.to_str().unwrap(),
    );
    args.extend(["--jobs", "4"]);
    let parallel = impactc(&args);
    assert_eq!(parallel.code, Some(10), "parallel run: {}", parallel.stderr);

    assert_eq!(
        canon(&parallel.stdout, &par_report),
        canon(&serial.stdout, &serial_report),
        "parallel summary diverged from serial"
    );
    assert_eq!(
        snapshot(&par_report),
        snapshot(&serial_report),
        "parallel report set diverged from serial"
    );
}

#[test]
fn parallel_crash_resume_matrix_is_exact() {
    let dir = tmp_dir("kill-matrix");
    let units = write_units(&dir);
    let beta = units[1].clone();

    // The comparison baseline is the uninterrupted SERIAL run: a resumed
    // parallel campaign must match it, proving jobs count changes nothing
    // observable.
    let base_report = dir.join("base-reports");
    let base_journal = dir.join("base.journal");
    let base = impactc(&batch_args(
        &units,
        &beta,
        base_report.to_str().unwrap(),
        base_journal.to_str().unwrap(),
    ));
    assert_eq!(base.code, Some(10), "baseline: {}", base.stderr);
    let base_stdout = canon(&base.stdout, &base_report);
    let base_files = snapshot(&base_report);

    for class in ["journal:crash", "journal:torn", "journal:crash-after"] {
        let mut crashed_at_least_once = false;
        for n in 1..=16u32 {
            let tag = format!("{}-{n}", class.replace(':', "-"));
            let report = dir.join(format!("reports-{tag}"));
            let journal = dir.join(format!("{tag}.journal"));
            let report_s = report.to_str().unwrap().to_string();
            let journal_s = journal.to_str().unwrap().to_string();
            let kill = format!("{class}={n}");
            let mut args = batch_args(&units, &beta, &report_s, &journal_s);
            args.extend(["--jobs", "4", "--fault", &kill]);
            let killed = impactc(&args);
            if killed.code.is_some() {
                assert_eq!(killed.code, Some(10), "{tag}: {}", killed.stderr);
                assert!(n > 1, "{class} never fired");
                break;
            }
            crashed_at_least_once = true;
            assert_no_torn_artifacts(&report);
            assert_journal_replayable(&journal);

            let mut args = batch_args(&units, &beta, &report_s, &journal_s);
            args.extend(["--jobs", "4", "--resume"]);
            let resumed = impactc(&args);
            assert_eq!(
                resumed.code,
                Some(10),
                "{tag} resume failed: {}",
                resumed.stderr
            );
            assert_eq!(
                canon(&resumed.stdout, &report),
                base_stdout,
                "{tag}: resumed parallel summary diverged from the serial run"
            );
            assert_eq!(
                snapshot(&report),
                base_files,
                "{tag}: resumed parallel report set diverged from the serial run"
            );
            assert_no_torn_artifacts(&report);
            assert_staging_scrubbed(&report);
        }
        assert!(crashed_at_least_once, "{class} fired for no kill index");
    }
}

#[test]
fn jobs_count_is_excluded_from_the_campaign_fingerprint() {
    let dir = tmp_dir("fingerprint-jobs");
    let units = write_units(&dir);
    let beta = units[1].clone();

    let base_report = dir.join("base-reports");
    let base_journal = dir.join("base.journal");
    let base = impactc(&batch_args(
        &units,
        &beta,
        base_report.to_str().unwrap(),
        base_journal.to_str().unwrap(),
    ));
    assert_eq!(base.code, Some(10), "baseline: {}", base.stderr);
    let base_stdout = canon(&base.stdout, &base_report);
    let base_files = snapshot(&base_report);

    // Kill a SERIAL campaign mid-flight, then resume it with --jobs 4:
    // the service knobs are operator tuning, not campaign identity, so
    // the fingerprint check must accept the switch.
    let report = dir.join("reports-switch");
    let journal = dir.join("switch.journal");
    let report_s = report.to_str().unwrap().to_string();
    let journal_s = journal.to_str().unwrap().to_string();
    let mut args = batch_args(&units, &beta, &report_s, &journal_s);
    args.extend(["--fault", "journal:crash=3"]);
    let killed = impactc(&args);
    assert_eq!(killed.code, None, "the kill point must abort the process");

    let mut args = batch_args(&units, &beta, &report_s, &journal_s);
    args.extend(["--jobs", "4", "--resume"]);
    let resumed = impactc(&args);
    assert_eq!(
        resumed.code,
        Some(10),
        "serial campaign must resume under --jobs 4: {}",
        resumed.stderr
    );
    assert_eq!(canon(&resumed.stdout, &report), base_stdout);
    assert_eq!(snapshot(&report), base_files);
}

#[test]
fn corrupted_cache_entry_is_quarantined_and_recompiled() {
    let dir = tmp_dir("cache-corruption");
    let units = write_units(&dir);
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap().to_string();
    let run = |extra: &[&str]| {
        let mut args: Vec<&str> = vec!["batch"];
        args.extend(units.iter().map(String::as_str));
        args.extend(["--cache-dir", &cache_s]);
        args.extend(extra);
        impactc(&args)
    };

    // Cold run populates the cache; the units exit 0, so the whole batch
    // does too.
    let cold = run(&[]);
    assert_eq!(cold.code, Some(0), "cold run: {}", cold.stderr);
    assert!(
        !cold.stdout.contains("; cache:"),
        "cold run emitted a cache note: {}",
        cold.stdout
    );
    let entries: Vec<PathBuf> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "entry")).then_some(p)
        })
        .collect();
    assert_eq!(entries.len(), 3, "one cache entry per unit");

    // Warm run: byte-identical summary (cache hits record zero elapsed
    // time, and elapsed tokens are normalized either way), and the
    // metrics counters prove every unit was served from cache.
    let metrics = dir.join("warm-metrics.json");
    let warm = run(&["--metrics-out", metrics.to_str().unwrap()]);
    assert_eq!(warm.code, Some(0), "warm run: {}", warm.stderr);
    assert_eq!(
        canon(&warm.stdout, &dir),
        canon(&cold.stdout, &dir),
        "warm summary diverged from cold"
    );
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.contains("\"name\": \"cache:hits\", \"value\": 3"),
        "warm run did not hit the cache 3 times: {metrics_text}"
    );

    // Flip one payload bit in one entry. The corrupted entry must never
    // be served: the run detects it, quarantines it with an incident
    // report, recompiles, and re-stores a good entry.
    let victim = &entries[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();

    // The startup scan-and-validate catches the corruption before any
    // lookup: the entry is quarantined (counted in the metrics, with
    // the incident report as the durable record) and the unit
    // recompiles — never served the bad bytes.
    let metrics_rec = dir.join("recovery-metrics.json");
    let recovered = run(&["--metrics-out", metrics_rec.to_str().unwrap()]);
    assert_eq!(
        recovered.code,
        Some(0),
        "recovery run: {}",
        recovered.stderr
    );
    let metrics_rec_text = std::fs::read_to_string(&metrics_rec).unwrap();
    assert!(
        metrics_rec_text.contains("\"name\": \"cache:quarantined\", \"value\": 1"),
        "corruption was not reported: {metrics_rec_text}"
    );
    let stem = victim.file_stem().unwrap().to_str().unwrap();
    assert!(
        cache.join(format!("{stem}.quarantined")).is_file(),
        "corrupt entry was not moved aside"
    );
    let incident = cache.join(format!("{stem}.incident.json"));
    let incident_text = std::fs::read_to_string(&incident).expect("incident report written");
    assert!(
        incident_text.contains("cache-incident"),
        "incident report malformed: {incident_text}"
    );
    assert!(
        victim.is_file(),
        "recompiled result was not re-stored under the same key"
    );

    // And the re-stored entry serves clean hits again.
    let metrics2 = dir.join("rewarm-metrics.json");
    let rewarm = run(&["--metrics-out", metrics2.to_str().unwrap()]);
    assert_eq!(rewarm.code, Some(0), "re-warm run: {}", rewarm.stderr);
    assert!(
        !rewarm.stdout.contains("; cache: quarantined"),
        "re-warm run still sees corruption: {}",
        rewarm.stdout
    );
    let metrics2_text = std::fs::read_to_string(&metrics2).unwrap();
    assert!(
        metrics2_text.contains("\"name\": \"cache:hits\", \"value\": 3"),
        "re-warm run did not hit the cache 3 times: {metrics2_text}"
    );
}
