//! The front-end conformance set: each program under `tests/conformance/`
//! opens with the exit status `gcc -O0` gave it, and both VM engines must
//! give the same. The statuses stay below 256, since a host reports
//! `main`'s value modulo 256 while the VM reports all of it. CI compiles
//! the same files with the runner's `cc` to keep the recorded answers
//! honest, so this test needs no C compiler.

use std::fs;
use std::path::Path;

use impact::cfront::{compile, Source};
use impact::vm::{run, Engine, VmConfig};

#[test]
fn conformance_programs_exit_as_gcc_does() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/conformance");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .expect("conformance directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(files.len() >= 7, "the conformance set lost programs");
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("readable program");
        let want: i64 = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("// gcc -O0 exit status: "))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{name}: first line must record gcc's exit status"));
        assert!(
            (0..256).contains(&want),
            "{name}: status {want} is not below 256"
        );
        let sources = [Source::new(name.as_str(), text.as_str())];
        let module = compile(&sources).unwrap_or_else(|e| panic!("{}", e.render(&sources)));
        for engine in [Engine::Interp, Engine::Bytecode] {
            let config = VmConfig {
                engine,
                ..VmConfig::default()
            };
            let out = run(&module, vec![], vec![], &config).expect("runs");
            assert_eq!(out.exit_code, want, "{name} ({engine:?})");
        }
    }
}
