//! IL snapshots: for every bundled benchmark and a fixed fuzz corpus, the
//! printed IL after inlining and after optimization, hashed. Any change
//! to expansion, renaming, or an optimizer pass that alters the emitted
//! IL fails here even when program outputs stay the same.
//! (`crates/workloads/tests/golden.rs` pins program outputs.)

use impact::cfront::{compile, Source};
use impact::il::{module_to_string, Module};
use impact::inline::{inline_module, InlineConfig};
use impact::opt::optimize_module_isolated;
use impact::vm::{fnv1a64, profile_runs, FaultPlan, NamedFile, VmConfig};
use impact::workloads::all_benchmarks;

type Runs = Vec<(Vec<NamedFile>, Vec<String>)>;

/// Functions whose optimizer pipeline stops at `MAX_FIXPOINT_ROUNDS`
/// while still changing, as `input/function`. Every other function must
/// converge.
const KNOWN_NONCONVERGED: &[&str] = &["fuzz:28/mid1", "fuzz:28/main"];

/// Profiles `module` on `runs`, inlines with the default config, then
/// optimizes. Returns the hashes of the printed IL after each step, or
/// `None` when a profiling run traps. Functions that did not converge
/// are appended to `nonconverged`.
fn il_hashes(
    name: &str,
    mut module: Module,
    runs: &Runs,
    nonconverged: &mut Vec<String>,
) -> Option<(u64, u64)> {
    let (profile, _) = profile_runs(&module, runs, &VmConfig::default()).ok()?;
    inline_module(&mut module, &profile.averaged(), &InlineConfig::default());
    let inlined = fnv1a64(module_to_string(&module).as_bytes());
    let (_, skipped, fixpoint) = optimize_module_isolated(&mut module, &FaultPlan::new());
    assert!(skipped.is_empty(), "{name}: passes skipped: {skipped:?}");
    nonconverged.extend(fixpoint.iter().map(|d| format!("{name}/{}", d.func)));
    let optimized = fnv1a64(module_to_string(&module).as_bytes());
    Some((inlined, optimized))
}

/// Every input that compiles and profiles cleanly, with its IL hashes,
/// and the functions whose optimization did not converge.
fn snapshot() -> (Vec<(String, u64, u64)>, Vec<String>) {
    let mut out = Vec::new();
    let mut nonconverged = Vec::new();
    for b in all_benchmarks() {
        let module = b.compile().expect("bundled benchmark compiles");
        let (inlined, optimized) =
            il_hashes(b.name, module, &b.profile_run_set(1), &mut nonconverged)
                .expect("bundled benchmark runs");
        out.push((b.name.to_string(), inlined, optimized));
    }
    let no_input: Runs = vec![(Vec::new(), Vec::new())];
    for seed in 0..32u64 {
        let Ok(module) = compile(&[Source::new("fuzz.c", impact::fuzz::generate(seed))]) else {
            continue;
        };
        let name = format!("fuzz:{seed}");
        if let Some((inlined, optimized)) = il_hashes(&name, module, &no_input, &mut nonconverged) {
            out.push((name, inlined, optimized));
        }
    }
    (out, nonconverged)
}

#[test]
fn emitted_il_matches_recorded_hashes() {
    // (input, IL after inlining, IL after optimization)
    let expected: &[(&str, u64, u64)] = &[
        // REGENERATE: cargo test --test il_golden -- --nocapture
        ("cccp", 0xd8c37b63fec8d15f, 0x6cebd8cb4ba0080d),
        ("cmp", 0xe42f1c537d425fec, 0x128d92ace852fe05),
        ("compress", 0x2b55ad302091ebdd, 0xe606b54960bd3f08),
        ("eqn", 0xf0505848cc5d8eb0, 0xc4a56d71d316d23e),
        ("espresso", 0x6a524193bc6159f8, 0xa01992113fbf4938),
        ("grep", 0x12f0f3cda05fefbb, 0x0a19c62f668a29af),
        ("lex", 0x685d79dbe576c743, 0xd92e111ea5bda234),
        ("make", 0x434d481cda5240c5, 0x716050c97cd520d0),
        ("tar", 0xf38e1abf49d3b651, 0xe096ce0217cbc7de),
        ("tee", 0x13cccf03a9e179d2, 0xb0112ff8e57b9743),
        ("wc", 0x211294a97de49df4, 0xd23a5f6a0c859acd),
        ("yacc", 0xf1258c2cd832a354, 0xdd97b72bd787df27),
        ("fuzz:0", 0xf4aabee09eed689e, 0x109bffa7afd11262),
        ("fuzz:1", 0xc0e7431077a2049d, 0x7c533f57f788b212),
        ("fuzz:2", 0x0af27acb68dcc3d4, 0x518896da0cb8fdec),
        ("fuzz:3", 0x1075ebe0f42e35f2, 0xf77b1873b8b70fe4),
        ("fuzz:4", 0xdf805cfde864004d, 0x60fe9e86155ec9ea),
        ("fuzz:5", 0x7a3dc44d92333249, 0x8cbbc2b6dd09d825),
        ("fuzz:6", 0xbea26da5e840e1a0, 0x9c8fb76d724dbf3e),
        ("fuzz:7", 0xca97cb4d2ec4a5df, 0x7b59e9d5a15a8c07),
        ("fuzz:8", 0x2f2efaac20a6d04e, 0x2c025bfa1809e2ac),
        ("fuzz:9", 0x1c07e6467828a516, 0xf5a1b531cef31224),
        ("fuzz:10", 0x8066cb5b227f49da, 0xbb22e657a5f16ae1),
        ("fuzz:11", 0x441c008992437e68, 0xc86040236298cbd4),
        ("fuzz:12", 0xb255705e0930280f, 0x10f1f358d8238151),
        ("fuzz:13", 0xf0bf56400fed2e73, 0x5189e9cc4cdd48c9),
        ("fuzz:14", 0xdbbbc036e83cd0e4, 0x90ddffdc2371c3be),
        ("fuzz:15", 0x29c93f2b34f5fe4a, 0xeb08e0a06c90d71a),
        ("fuzz:16", 0x8f6a91d24e600fdb, 0x64b29e9379db42cf),
        ("fuzz:17", 0x0b4a23fcf05cbe7d, 0x89456456506969f2),
        ("fuzz:18", 0xfd0ce519c976126d, 0x5c0ecc65e44325d9),
        ("fuzz:19", 0x7ebcf4ed5bd4dd5c, 0x76de5eeb4e23ba2c),
        ("fuzz:20", 0x4751abe312e4872a, 0x93b868f2c9ee782e),
        ("fuzz:21", 0x7b944bfa6c040e3f, 0x3217065b17526421),
        ("fuzz:22", 0x7641786f0e887785, 0x74a63ca8729dfa94),
        ("fuzz:23", 0x20a2e3a621c223b7, 0xfba28d4717a335c9),
        ("fuzz:24", 0x640d344827d119ab, 0xa449324fa25a6512),
        ("fuzz:25", 0xf36e004ac5028b9d, 0xa77d670451b4d2a1),
        ("fuzz:26", 0xa579b98a94b0e460, 0xf62c0ae8916eb849),
        ("fuzz:27", 0xaf400e2192652689, 0x5cfd2bed96f003f0),
        ("fuzz:28", 0x60d63fcc2ee4128c, 0x02cc26231df19351),
        ("fuzz:29", 0x5fe6ec090e71aafd, 0x6c3215dfa6ed60e5),
        ("fuzz:30", 0xea5156c8d16d2fe2, 0xe70b5b4edd0d56d8),
        ("fuzz:31", 0x436902684b73a4d8, 0xbad4d43dd0d69e17),
    ];
    let (got, nonconverged) = snapshot();
    assert_eq!(
        nonconverged, KNOWN_NONCONVERGED,
        "optimizer fixpoint diagnostics"
    );
    let matches = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|((n, i, o), (wn, wi, wo))| n == wn && i == wi && o == wo);
    let table: Vec<String> = got
        .iter()
        .map(|(n, i, o)| format!("        (\"{n}\", 0x{i:016x}, 0x{o:016x}),"))
        .collect();
    assert!(
        matches,
        "emitted IL changed; if intentional, update to:\n{}",
        table.join("\n")
    );
}
