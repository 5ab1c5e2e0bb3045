//! Crash→resume recovery matrix: kill `impactc batch`/`impactc fuzz` at
//! every campaign-journal event via the `journal:crash` / `journal:torn`
//! / `journal:crash-after` fault points, then prove that
//!
//! 1. no partially-written artifact is published in `--report-dir`
//!    after the kill (no `*.tmp`, no truncated JSON, outside the
//!    `.staging/` scratch area a kill may catch mid-write), and
//! 2. `--resume` completes the campaign with a summary and report set
//!    **byte-identical** to an uninterrupted run (modulo the `; journal:`
//!    status lines and the one nondeterministic report field, `wall_ms`),
//!    and scrubs `.staging/`.
//!
//! The matrix walks the kill index upward per fault class until a run no
//! longer crashes — i.e. past the campaign's last journal append — so
//! every event class is covered without hard-coding the event count.

mod common;

use common::{
    assert_no_torn_artifacts, assert_staging_scrubbed, batch_args, canon, impactc, snapshot,
    tmp_dir, write_units,
};

#[test]
fn batch_crash_resume_matrix_is_exact() {
    let dir = tmp_dir("batch-matrix");
    let units = write_units(&dir);
    let beta = units[1].clone();

    // Uninterrupted journaled baseline: beta quarantines (exit 10), a
    // crash report lands in the report dir.
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
    assert!(
        base_files.keys().any(|n| n.ends_with(".json")),
        "baseline wrote no crash report: {base_files:?}"
    );

    // With 3 units the journal sees 8 appends (campaign-start, 3 ×
    // unit-start/unit-done, campaign-end); the loop discovers that bound
    // by walking until a kill no longer fires.
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
            args.extend(["--fault", &kill]);
            let killed = impactc(&args);
            if killed.code.is_some() {
                // The kill point sits past the campaign's last journal
                // append: the run completed; the matrix for this class is
                // exhausted.
                assert_eq!(killed.code, Some(10), "{tag}: {}", killed.stderr);
                assert!(n > 1, "{class} never fired");
                break;
            }
            crashed_at_least_once = true;
            assert_no_torn_artifacts(&report);

            // Resume without the kill fault: the campaign must complete
            // with the baseline's exact summary and report set.
            let mut args = batch_args(&units, &beta, &report_s, &journal_s);
            args.push("--resume");
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
                "{tag}: resumed summary diverged from the uninterrupted run"
            );
            assert_eq!(
                snapshot(&report),
                base_files,
                "{tag}: resumed report set diverged from the uninterrupted run"
            );
            assert_no_torn_artifacts(&report);
            assert_staging_scrubbed(&report);
        }
        assert!(crashed_at_least_once, "{class} fired for no kill index");
    }
}

#[test]
fn fuzz_clean_campaign_crash_resume_matrix_is_exact() {
    let dir = tmp_dir("fuzz-matrix");

    let base_journal = dir.join("base.journal");
    let base = impactc(&[
        "fuzz",
        "--seed",
        "7",
        "--budget",
        "3",
        "--journal",
        base_journal.to_str().unwrap(),
    ]);
    assert_eq!(base.code, Some(0), "baseline: {}", base.stderr);
    let base_stdout = canon(&base.stdout, &dir);

    for class in ["journal:crash", "journal:torn", "journal:crash-after"] {
        let mut crashed_at_least_once = false;
        for n in 1..=16u32 {
            let tag = format!("{}-{n}", class.replace(':', "-"));
            let journal = dir.join(format!("{tag}.journal"));
            let journal_s = journal.to_str().unwrap().to_string();
            let kill = format!("{class}={n}");
            let killed = impactc(&[
                "fuzz",
                "--seed",
                "7",
                "--budget",
                "3",
                "--journal",
                &journal_s,
                "--fault",
                &kill,
            ]);
            if killed.code.is_some() {
                assert_eq!(killed.code, Some(0), "{tag}: {}", killed.stderr);
                assert!(n > 1, "{class} never fired");
                break;
            }
            crashed_at_least_once = true;
            let resumed = impactc(&[
                "fuzz",
                "--seed",
                "7",
                "--budget",
                "3",
                "--journal",
                &journal_s,
                "--resume",
            ]);
            assert_eq!(
                resumed.code,
                Some(0),
                "{tag} resume failed: {}",
                resumed.stderr
            );
            assert_eq!(
                canon(&resumed.stdout, &dir),
                base_stdout,
                "{tag}: resumed summary diverged"
            );
        }
        assert!(crashed_at_least_once, "{class} fired for no kill index");
    }
}

#[test]
fn fuzz_finding_campaign_resumes_with_identical_reports() {
    let dir = tmp_dir("fuzz-finding");
    let base_report = dir.join("base-reports");
    let base_journal = dir.join("base.journal");
    let finding_args = |report: &str, journal: &str| -> Vec<String> {
        [
            "fuzz",
            "--seed",
            "42",
            "--budget",
            "2",
            "--fault",
            "expand:verify",
            "--report-dir",
            report,
            "--journal",
            journal,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };
    let base = impactc(&finding_args(
        base_report.to_str().unwrap(),
        base_journal.to_str().unwrap(),
    ));
    assert_eq!(base.code, Some(12), "baseline: {}", base.stderr);
    let base_stdout = canon(&base.stdout, &base_report);
    let base_files = snapshot(&base_report);
    assert!(
        base_files.keys().any(|n| n.ends_with(".repro.c")),
        "baseline wrote no reproducer: {base_files:?}"
    );

    // One targeted kill mid-campaign (the 3rd journal append lands inside
    // program p0/p1 processing), then resume.
    let report = dir.join("reports-kill");
    let journal = dir.join("kill.journal");
    let mut args = finding_args(report.to_str().unwrap(), journal.to_str().unwrap());
    args.extend(["--fault".to_string(), "journal:crash=3".to_string()]);
    let killed = impactc(&args);
    assert_eq!(killed.code, None, "the kill point must abort the process");
    assert_no_torn_artifacts(&report);

    let mut args = finding_args(report.to_str().unwrap(), journal.to_str().unwrap());
    args.push("--resume".to_string());
    let resumed = impactc(&args);
    assert_eq!(
        resumed.code,
        Some(12),
        "resume must finish the finding campaign: {}",
        resumed.stderr
    );
    assert_eq!(
        canon(&resumed.stdout, &report),
        base_stdout,
        "resumed finding summary diverged"
    );
    assert_eq!(
        snapshot(&report),
        base_files,
        "resumed finding reports diverged"
    );
    assert_no_torn_artifacts(&report);
    assert_staging_scrubbed(&report);
}

#[test]
fn resume_refuses_a_different_campaign_without_force() {
    let dir = tmp_dir("fingerprint");
    let units = write_units(&dir);
    let journal = dir.join("c.journal");
    let journal_s = journal.to_str().unwrap().to_string();

    let first = impactc(&[
        "batch",
        &units[0],
        "--journal",
        &journal_s,
        "--threshold",
        "5",
    ]);
    assert_eq!(first.code, Some(0), "{}", first.stderr);

    // Same journal, different flags: refused, and the message names both
    // fingerprints plus the override.
    let mismatched = impactc(&[
        "batch",
        &units[0],
        "--journal",
        &journal_s,
        "--threshold",
        "6",
        "--resume",
    ]);
    assert_eq!(mismatched.code, Some(2), "{}", mismatched.stdout);
    assert!(
        mismatched.stderr.contains("--force-resume"),
        "{}",
        mismatched.stderr
    );
    assert!(
        mismatched.stderr.contains("fingerprint"),
        "{}",
        mismatched.stderr
    );

    // --force-resume overrides.
    let forced = impactc(&[
        "batch",
        &units[0],
        "--journal",
        &journal_s,
        "--threshold",
        "6",
        "--resume",
        "--force-resume",
    ]);
    assert_eq!(forced.code, Some(0), "{}", forced.stderr);

    // A fresh (non-resume) run refuses to clobber an existing journal.
    let clobber = impactc(&["batch", &units[0], "--journal", &journal_s]);
    assert_eq!(clobber.code, Some(2));
    assert!(clobber.stderr.contains("--resume"), "{}", clobber.stderr);

    // --resume without --journal, and journal flags on non-campaign
    // commands, are usage errors.
    let orphan = impactc(&["batch", &units[0], "--resume"]);
    assert_eq!(orphan.code, Some(2));
    assert!(orphan.stderr.contains("--journal"), "{}", orphan.stderr);
    let wrong_cmd = impactc(&["compile", &units[0], "--journal", &journal_s]);
    assert_eq!(wrong_cmd.code, Some(2));
    assert!(
        wrong_cmd.stderr.contains("campaign commands"),
        "{}",
        wrong_cmd.stderr
    );
}
