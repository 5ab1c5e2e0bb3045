//! IL snapshots: for every bundled benchmark and a fixed fuzz corpus, the
//! printed IL after inlining and after optimization, hashed, and after
//! optimization with one pass invocation forced to panic. Any change to
//! expansion, renaming, an optimizer pass or pass isolation that alters
//! the emitted IL fails here even when program outputs stay the same.
//! (`crates/workloads/tests/golden.rs` pins program outputs.) The same
//! inputs check that the optimizer's change counts mean what they say.

use std::sync::OnceLock;

use impact::cfront::{compile, Source};
use impact::il::{module_to_string, Function, Module};
use impact::inline::{inline_module, InlineConfig};
use impact::opt::{
    constant_fold, copy_propagation, dead_code_elimination, jump_optimization, local_cse,
    optimize_module, optimize_module_isolated, strength_reduce, MAX_FIXPOINT_ROUNDS,
};
use impact::vm::{fnv1a64, profile_runs, FaultPlan, NamedFile, VmConfig};
use impact::workloads::all_benchmarks;

type Runs = Vec<(Vec<NamedFile>, Vec<String>)>;

/// Functions whose optimizer pipeline stops at `MAX_FIXPOINT_ROUNDS`
/// while still changing, as `input/function`. Every other function must
/// converge.
const KNOWN_NONCONVERGED: &[&str] = &[];

/// The `opt:pass=N` hits each input is optimized under by
/// [`faulted_il_matches_recorded_hashes`].
const FAULT_HITS: [u64; 6] = [1, 3, 8, 17, 36, 40];

/// Profiles `module` on `runs` and inlines it with the default config.
/// `None` when a profiling run traps.
fn inlined(mut module: Module, runs: &Runs) -> Option<Module> {
    let (profile, _) = profile_runs(&module, runs, &VmConfig::default()).ok()?;
    inline_module(&mut module, &profile.averaged(), &InlineConfig::default());
    Some(module)
}

/// Every input that compiles and profiles cleanly, inlined: the twelve
/// bundled benchmarks and fuzz seeds 0..32. Built once per test binary.
fn corpus() -> &'static [(String, Module)] {
    static CORPUS: OnceLock<Vec<(String, Module)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut out = Vec::new();
        for b in all_benchmarks() {
            let module = b.compile().expect("bundled benchmark compiles");
            let module = inlined(module, &b.profile_run_set(1)).expect("bundled benchmark runs");
            out.push((b.name.to_string(), module));
        }
        let no_input: Runs = vec![(Vec::new(), Vec::new())];
        for seed in 0..32u64 {
            let Ok(module) = compile(&[Source::new("fuzz.c", impact::fuzz::generate(seed))]) else {
                continue;
            };
            if let Some(module) = inlined(module, &no_input) {
                out.push((format!("fuzz:{seed}"), module));
            }
        }
        out
    })
}

fn il_hash(module: &Module) -> u64 {
    fnv1a64(module_to_string(module).as_bytes())
}

/// Asserts that the rendered table rows `got` equal `expected`; on a
/// mismatch the message is the replacement table.
fn assert_table(what: &str, got: Vec<String>, expected: Vec<String>) {
    assert!(
        got == expected,
        "{what} changed; if intentional, update to:\n{}",
        got.join("\n")
    );
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
    let mut got = Vec::new();
    let mut nonconverged = Vec::new();
    for (name, inlined) in corpus() {
        let mut module = inlined.clone();
        let (_, skipped, fixpoint) = optimize_module_isolated(&mut module, &FaultPlan::new());
        assert!(skipped.is_empty(), "{name}: passes skipped: {skipped:?}");
        nonconverged.extend(fixpoint.iter().map(|d| format!("{name}/{}", d.func)));
        got.push((name.as_str(), il_hash(inlined), il_hash(&module)));
    }
    assert_eq!(
        nonconverged, KNOWN_NONCONVERGED,
        "optimizer fixpoint diagnostics"
    );
    let row = |(n, i, o): &(&str, u64, u64)| format!("        (\"{n}\", 0x{i:016x}, 0x{o:016x}),");
    assert_table(
        "emitted IL",
        got.iter().map(row).collect(),
        expected.iter().map(row).collect(),
    );
}

/// Pass isolation pinned exactly: each input optimized with its Nth pass
/// invocation panicking, for every N in [`FAULT_HITS`].
#[test]
fn faulted_il_matches_recorded_hashes() {
    // (input, N, skipped passes as `function/pass`, IL after optimization)
    #[rustfmt::skip]
    let expected: &[(&str, u64, &str, u64)] = &[
        // REGENERATE: cargo test --test il_golden -- --nocapture
        ("cccp", 1, "in_fill/constant-fold", 0x6cebd8cb4ba0080d),
        ("cccp", 3, "in_fill/local-cse", 0xd1372a7c873ab0c4),
        ("cccp", 8, "in_fill/strength-reduce", 0x6cebd8cb4ba0080d),
        ("cccp", 17, "in_fill/dead-code-elimination", 0x0ca8fdc7745665b8),
        ("cccp", 36, "in_byte/jump-optimization", 0x6cebd8cb4ba0080d),
        ("cccp", 40, "in_byte/copy-propagation", 0x6cebd8cb4ba0080d),
        ("cmp", 1, "in_fill/constant-fold", 0x128d92ace852fe05),
        ("cmp", 3, "in_fill/local-cse", 0x6f0198ef1493ce5a),
        ("cmp", 8, "in_fill/strength-reduce", 0x128d92ace852fe05),
        ("cmp", 17, "in_fill/dead-code-elimination", 0xf7ba9541144f6c8a),
        ("cmp", 36, "in_byte/jump-optimization", 0x128d92ace852fe05),
        ("cmp", 40, "in_byte/copy-propagation", 0x128d92ace852fe05),
        ("compress", 1, "in_fill/constant-fold", 0xe606b54960bd3f08),
        ("compress", 3, "in_fill/local-cse", 0x89b5292ec3edfb59),
        ("compress", 8, "in_fill/strength-reduce", 0xe606b54960bd3f08),
        ("compress", 17, "in_fill/dead-code-elimination", 0xb7eda821476abc3d),
        ("compress", 36, "in_byte/jump-optimization", 0xe606b54960bd3f08),
        ("compress", 40, "in_byte/copy-propagation", 0xe606b54960bd3f08),
        ("eqn", 1, "in_fill/constant-fold", 0xc4a56d71d316d23e),
        ("eqn", 3, "in_fill/local-cse", 0x3edf0b7b2aa0f427),
        ("eqn", 8, "in_fill/strength-reduce", 0xc4a56d71d316d23e),
        ("eqn", 17, "in_fill/dead-code-elimination", 0x746b93becfe4eb97),
        ("eqn", 36, "in_byte/jump-optimization", 0xc4a56d71d316d23e),
        ("eqn", 40, "in_byte/copy-propagation", 0xc4a56d71d316d23e),
        ("espresso", 1, "in_fill/constant-fold", 0xa01992113fbf4938),
        ("espresso", 3, "in_fill/local-cse", 0x04775a34a724fe53),
        ("espresso", 8, "in_fill/strength-reduce", 0xa01992113fbf4938),
        ("espresso", 17, "in_fill/dead-code-elimination", 0x35e971ef0f29828b),
        ("espresso", 36, "in_byte/jump-optimization", 0xa01992113fbf4938),
        ("espresso", 40, "in_byte/copy-propagation", 0xa01992113fbf4938),
        ("grep", 1, "in_fill/constant-fold", 0x0a19c62f668a29af),
        ("grep", 3, "in_fill/local-cse", 0x3a2fa8cb8c3231e0),
        ("grep", 8, "in_fill/strength-reduce", 0x0a19c62f668a29af),
        ("grep", 17, "in_fill/dead-code-elimination", 0xab49c183eaecab70),
        ("grep", 36, "in_byte/jump-optimization", 0x0a19c62f668a29af),
        ("grep", 40, "in_byte/copy-propagation", 0x0a19c62f668a29af),
        ("lex", 1, "in_fill/constant-fold", 0xd92e111ea5bda234),
        ("lex", 3, "in_fill/local-cse", 0x9ba291cb12244263),
        ("lex", 8, "in_fill/strength-reduce", 0xd92e111ea5bda234),
        ("lex", 17, "in_fill/dead-code-elimination", 0x3c01642c5bcd246b),
        ("lex", 36, "in_byte/jump-optimization", 0xd92e111ea5bda234),
        ("lex", 40, "in_byte/copy-propagation", 0xd92e111ea5bda234),
        ("make", 1, "in_fill/constant-fold", 0x716050c97cd520d0),
        ("make", 3, "in_fill/local-cse", 0x4cd8827acfb5bb33),
        ("make", 8, "in_fill/strength-reduce", 0x716050c97cd520d0),
        ("make", 17, "in_fill/dead-code-elimination", 0x394a430b10fc2a37),
        ("make", 36, "in_byte/jump-optimization", 0x716050c97cd520d0),
        ("make", 40, "in_byte/copy-propagation", 0x716050c97cd520d0),
        ("tar", 1, "in_fill/constant-fold", 0xe096ce0217cbc7de),
        ("tar", 3, "in_fill/local-cse", 0x28e164b8131a1eb1),
        ("tar", 8, "in_fill/strength-reduce", 0xe096ce0217cbc7de),
        ("tar", 17, "in_fill/dead-code-elimination", 0xd4db8be92e4133bd),
        ("tar", 36, "in_byte/jump-optimization", 0xe096ce0217cbc7de),
        ("tar", 40, "in_byte/copy-propagation", 0xe096ce0217cbc7de),
        ("tee", 1, "in_fill/constant-fold", 0xb0112ff8e57b9743),
        ("tee", 3, "in_fill/local-cse", 0xe68fb9afe6ec4322),
        ("tee", 8, "in_fill/strength-reduce", 0xb0112ff8e57b9743),
        ("tee", 17, "in_fill/dead-code-elimination", 0xa6857cd06cae0386),
        ("tee", 36, "in_byte/jump-optimization", 0xb0112ff8e57b9743),
        ("tee", 40, "in_byte/copy-propagation", 0xb0112ff8e57b9743),
        ("wc", 1, "in_fill/constant-fold", 0xd23a5f6a0c859acd),
        ("wc", 3, "in_fill/local-cse", 0x8db01403a059d712),
        ("wc", 8, "in_fill/strength-reduce", 0xd23a5f6a0c859acd),
        ("wc", 17, "in_fill/dead-code-elimination", 0xc8883632d1151d82),
        ("wc", 36, "in_byte/jump-optimization", 0xd23a5f6a0c859acd),
        ("wc", 40, "in_byte/copy-propagation", 0xd23a5f6a0c859acd),
        ("yacc", 1, "in_fill/constant-fold", 0xdd97b72bd787df27),
        ("yacc", 3, "in_fill/local-cse", 0xdb855f082f6a46e2),
        ("yacc", 8, "in_fill/strength-reduce", 0xdd97b72bd787df27),
        ("yacc", 17, "in_fill/dead-code-elimination", 0x1718193d83655d66),
        ("yacc", 36, "in_byte/jump-optimization", 0xdd97b72bd787df27),
        ("yacc", 40, "in_byte/copy-propagation", 0xdd97b72bd787df27),
        ("fuzz:0", 1, "leaf0/constant-fold", 0x109bffa7afd11262),
        ("fuzz:0", 3, "leaf0/local-cse", 0x109bffa7afd11262),
        ("fuzz:0", 8, "leaf1/strength-reduce", 0xf9a4c3ed359d0722),
        ("fuzz:0", 17, "leaf1/dead-code-elimination", 0x109bffa7afd11262),
        ("fuzz:0", 36, "leaf3/jump-optimization", 0x109bffa7afd11262),
        ("fuzz:0", 40, "mid0/copy-propagation", 0x70c55b2bc8ffe6ce),
        ("fuzz:1", 1, "leaf0/constant-fold", 0x7c533f57f788b212),
        ("fuzz:1", 3, "leaf0/local-cse", 0x7c533f57f788b212),
        ("fuzz:1", 8, "leaf1/strength-reduce", 0x7c533f57f788b212),
        ("fuzz:1", 17, "leaf2/dead-code-elimination", 0x7c533f57f788b212),
        ("fuzz:1", 36, "mid0/jump-optimization", 0x7c533f57f788b212),
        ("fuzz:1", 40, "mid1/copy-propagation", 0x717d3a827da6b696),
        ("fuzz:2", 1, "leaf0/constant-fold", 0x518896da0cb8fdec),
        ("fuzz:2", 3, "leaf0/local-cse", 0x518896da0cb8fdec),
        ("fuzz:2", 8, "leaf1/strength-reduce", 0x518896da0cb8fdec),
        ("fuzz:2", 17, "leaf1/dead-code-elimination", 0x518896da0cb8fdec),
        ("fuzz:2", 36, "mid0/jump-optimization", 0x518896da0cb8fdec),
        ("fuzz:2", 40, "mid0/copy-propagation", 0x518896da0cb8fdec),
        ("fuzz:3", 1, "leaf0/constant-fold", 0x7272a7d472b403e5),
        ("fuzz:3", 3, "leaf0/local-cse", 0x2e33dbf482875a9d),
        ("fuzz:3", 8, "leaf0/strength-reduce", 0xf77b1873b8b70fe4),
        ("fuzz:3", 17, "leaf1/dead-code-elimination", 0xf77b1873b8b70fe4),
        ("fuzz:3", 36, "mid0/jump-optimization", 0xf77b1873b8b70fe4),
        ("fuzz:3", 40, "mid1/copy-propagation", 0x09cf3393bfe5232c),
        ("fuzz:4", 1, "leaf0/constant-fold", 0x60fe9e86155ec9ea),
        ("fuzz:4", 3, "leaf0/local-cse", 0x60fe9e86155ec9ea),
        ("fuzz:4", 8, "leaf1/strength-reduce", 0x60fe9e86155ec9ea),
        ("fuzz:4", 17, "leaf1/dead-code-elimination", 0x60fe9e86155ec9ea),
        ("fuzz:4", 36, "mid0/jump-optimization", 0x60fe9e86155ec9ea),
        ("fuzz:4", 40, "mid0/copy-propagation", 0x60fe9e86155ec9ea),
        ("fuzz:5", 1, "leaf0/constant-fold", 0x8cbbc2b6dd09d825),
        ("fuzz:5", 3, "leaf0/local-cse", 0x8cbbc2b6dd09d825),
        ("fuzz:5", 8, "leaf1/strength-reduce", 0x8cbbc2b6dd09d825),
        ("fuzz:5", 17, "leaf2/dead-code-elimination", 0xed046e0cf64cd602),
        ("fuzz:5", 36, "mid0/jump-optimization", 0x8cbbc2b6dd09d825),
        ("fuzz:5", 40, "mid0/copy-propagation", 0x8cbbc2b6dd09d825),
        ("fuzz:6", 1, "leaf0/constant-fold", 0x9c8fb76d724dbf3e),
        ("fuzz:6", 3, "leaf0/local-cse", 0x9c8fb76d724dbf3e),
        ("fuzz:6", 8, "leaf1/strength-reduce", 0x9c8fb76d724dbf3e),
        ("fuzz:6", 17, "leaf1/dead-code-elimination", 0xd777b8992b661df9),
        ("fuzz:6", 36, "leaf3/jump-optimization", 0x9c8fb76d724dbf3e),
        ("fuzz:6", 40, "leaf3/copy-propagation", 0x9c8fb76d724dbf3e),
        ("fuzz:7", 1, "leaf0/constant-fold", 0x7b59e9d5a15a8c07),
        ("fuzz:7", 3, "leaf0/local-cse", 0x7b59e9d5a15a8c07),
        ("fuzz:7", 8, "leaf1/strength-reduce", 0x7b59e9d5a15a8c07),
        ("fuzz:7", 17, "leaf2/dead-code-elimination", 0x81952525e5444d9f),
        ("fuzz:7", 36, "mid0/jump-optimization", 0x7b59e9d5a15a8c07),
        ("fuzz:7", 40, "mid0/copy-propagation", 0x7b59e9d5a15a8c07),
        ("fuzz:8", 1, "leaf0/constant-fold", 0x2c025bfa1809e2ac),
        ("fuzz:8", 3, "leaf0/local-cse", 0x2c025bfa1809e2ac),
        ("fuzz:8", 8, "leaf1/strength-reduce", 0x2c025bfa1809e2ac),
        ("fuzz:8", 17, "leaf1/dead-code-elimination", 0x2c025bfa1809e2ac),
        ("fuzz:8", 36, "mid0/jump-optimization", 0x2c025bfa1809e2ac),
        ("fuzz:8", 40, "mid0/copy-propagation", 0x2c025bfa1809e2ac),
        ("fuzz:9", 1, "leaf0/constant-fold", 0xf5a1b531cef31224),
        ("fuzz:9", 3, "leaf0/local-cse", 0xf5a1b531cef31224),
        ("fuzz:9", 8, "leaf1/strength-reduce", 0xf5a1b531cef31224),
        ("fuzz:9", 17, "leaf2/dead-code-elimination", 0x05a566319b08d463),
        ("fuzz:9", 36, "leaf2/jump-optimization", 0xf5a1b531cef31224),
        ("fuzz:9", 40, "leaf3/copy-propagation", 0xf5a1b531cef31224),
        ("fuzz:10", 1, "leaf0/constant-fold", 0xbb22e657a5f16ae1),
        ("fuzz:10", 3, "leaf0/local-cse", 0xbb22e657a5f16ae1),
        ("fuzz:10", 8, "leaf1/strength-reduce", 0xbb22e657a5f16ae1),
        ("fuzz:10", 17, "mid0/dead-code-elimination", 0x076c623289b2183a),
        ("fuzz:10", 36, "mid1/jump-optimization", 0xddf798e44da7b6f7),
        ("fuzz:10", 40, "mid1/copy-propagation", 0x2c3e444bb68b4547),
        ("fuzz:11", 1, "leaf0/constant-fold", 0xc86040236298cbd4),
        ("fuzz:11", 3, "leaf0/local-cse", 0xc86040236298cbd4),
        ("fuzz:11", 8, "leaf1/strength-reduce", 0xc86040236298cbd4),
        ("fuzz:11", 17, "leaf1/dead-code-elimination", 0xc86040236298cbd4),
        ("fuzz:11", 36, "mid0/jump-optimization", 0xc86040236298cbd4),
        ("fuzz:11", 40, "mid0/copy-propagation", 0xc86040236298cbd4),
        ("fuzz:12", 1, "leaf0/constant-fold", 0xfd0b90eb7a24aef5),
        ("fuzz:12", 3, "leaf0/local-cse", 0x10f1f358d8238151),
        ("fuzz:12", 8, "leaf0/strength-reduce", 0x10f1f358d8238151),
        ("fuzz:12", 17, "leaf1/dead-code-elimination", 0xa532e40a15d0bcd3),
        ("fuzz:12", 36, "leaf2/jump-optimization", 0x10f1f358d8238151),
        ("fuzz:12", 40, "mid0/copy-propagation", 0xfde2f444a03a5825),
        ("fuzz:13", 1, "leaf0/constant-fold", 0x5189e9cc4cdd48c9),
        ("fuzz:13", 3, "leaf0/local-cse", 0x5189e9cc4cdd48c9),
        ("fuzz:13", 8, "leaf1/strength-reduce", 0x5189e9cc4cdd48c9),
        ("fuzz:13", 17, "leaf1/dead-code-elimination", 0x5189e9cc4cdd48c9),
        ("fuzz:13", 36, "leaf2/jump-optimization", 0x5189e9cc4cdd48c9),
        ("fuzz:13", 40, "leaf3/copy-propagation", 0x5189e9cc4cdd48c9),
        ("fuzz:14", 1, "leaf0/constant-fold", 0x2202e34afaa3e52b),
        ("fuzz:14", 3, "leaf0/local-cse", 0x90ddffdc2371c3be),
        ("fuzz:14", 8, "leaf0/strength-reduce", 0x90ddffdc2371c3be),
        ("fuzz:14", 17, "leaf0/dead-code-elimination", 0x90ddffdc2371c3be),
        ("fuzz:14", 36, "leaf2/jump-optimization", 0x90ddffdc2371c3be),
        ("fuzz:14", 40, "mid0/copy-propagation", 0x785ac64cbec4fddd),
        ("fuzz:15", 1, "leaf0/constant-fold", 0xc6e7e6b234c74190),
        ("fuzz:15", 3, "leaf0/local-cse", 0xeb08e0a06c90d71a),
        ("fuzz:15", 8, "leaf0/strength-reduce", 0xeb08e0a06c90d71a),
        ("fuzz:15", 17, "leaf1/dead-code-elimination", 0xeb08e0a06c90d71a),
        ("fuzz:15", 36, "mid0/jump-optimization", 0xeb08e0a06c90d71a),
        ("fuzz:15", 40, "mid0/copy-propagation", 0xeb08e0a06c90d71a),
        ("fuzz:16", 1, "leaf0/constant-fold", 0x134c453d66c45481),
        ("fuzz:16", 3, "leaf0/local-cse", 0x8b451aaace036789),
        ("fuzz:16", 8, "leaf0/strength-reduce", 0x64b29e9379db42cf),
        ("fuzz:16", 17, "leaf1/dead-code-elimination", 0x64b29e9379db42cf),
        ("fuzz:16", 36, "mid0/jump-optimization", 0x64b29e9379db42cf),
        ("fuzz:16", 40, "mid0/copy-propagation", 0x64b29e9379db42cf),
        ("fuzz:17", 1, "leaf0/constant-fold", 0x89456456506969f2),
        ("fuzz:17", 3, "leaf0/local-cse", 0x89456456506969f2),
        ("fuzz:17", 8, "leaf1/strength-reduce", 0x89456456506969f2),
        ("fuzz:17", 17, "leaf2/dead-code-elimination", 0x133b5b26739cfd28),
        ("fuzz:17", 36, "mid0/jump-optimization", 0x89456456506969f2),
        ("fuzz:17", 40, "mid0/copy-propagation", 0x6dfb1f7eb28f619f),
        ("fuzz:18", 1, "leaf0/constant-fold", 0x5c0ecc65e44325d9),
        ("fuzz:18", 3, "leaf0/local-cse", 0x5c0ecc65e44325d9),
        ("fuzz:18", 8, "leaf1/strength-reduce", 0x5c0ecc65e44325d9),
        ("fuzz:18", 17, "mid0/dead-code-elimination", 0xa576eb03a16c17c3),
        ("fuzz:18", 36, "mid0/jump-optimization", 0x5c0ecc65e44325d9),
        ("fuzz:18", 40, "mid1/copy-propagation", 0xdd5d41245bd5017f),
        ("fuzz:19", 1, "leaf0/constant-fold", 0x76de5eeb4e23ba2c),
        ("fuzz:19", 3, "leaf0/local-cse", 0x76de5eeb4e23ba2c),
        ("fuzz:19", 8, "leaf1/strength-reduce", 0x76de5eeb4e23ba2c),
        ("fuzz:19", 17, "leaf1/dead-code-elimination", 0x76de5eeb4e23ba2c),
        ("fuzz:19", 36, "leaf3/jump-optimization", 0x76de5eeb4e23ba2c),
        ("fuzz:19", 40, "mid0/copy-propagation", 0x925ec4127091403c),
        ("fuzz:20", 1, "leaf0/constant-fold", 0x93b868f2c9ee782e),
        ("fuzz:20", 3, "leaf0/local-cse", 0x93b868f2c9ee782e),
        ("fuzz:20", 8, "leaf1/strength-reduce", 0x93b868f2c9ee782e),
        ("fuzz:20", 17, "mid0/dead-code-elimination", 0xe64d5e2fab121110),
        ("fuzz:20", 36, "cold0/jump-optimization", 0x93b868f2c9ee782e),
        ("fuzz:20", 40, "srec/copy-propagation", 0x93b868f2c9ee782e),
        ("fuzz:21", 1, "leaf0/constant-fold", 0xc874c66076ed6a84),
        ("fuzz:21", 3, "leaf0/local-cse", 0x3217065b17526421),
        ("fuzz:21", 8, "leaf0/strength-reduce", 0x3217065b17526421),
        ("fuzz:21", 17, "leaf1/dead-code-elimination", 0x3217065b17526421),
        ("fuzz:21", 36, "mid0/jump-optimization", 0x3217065b17526421),
        ("fuzz:21", 40, "mid1/copy-propagation", 0x5c846b8b276776f0),
        ("fuzz:22", 1, "leaf0/constant-fold", 0x892a0fae38e65bff),
        ("fuzz:22", 3, "leaf0/local-cse", 0xdd153ada83cadc64),
        ("fuzz:22", 8, "leaf0/strength-reduce", 0x74a63ca8729dfa94),
        ("fuzz:22", 17, "leaf1/dead-code-elimination", 0x465076d1e859d22a),
        ("fuzz:22", 36, "leaf3/jump-optimization", 0x74a63ca8729dfa94),
        ("fuzz:22", 40, "mid0/copy-propagation", 0xd341d1bcff6d8df5),
        ("fuzz:23", 1, "leaf0/constant-fold", 0x17e5a3f1afd1ecd1),
        ("fuzz:23", 3, "leaf0/local-cse", 0xfba28d4717a335c9),
        ("fuzz:23", 8, "leaf0/strength-reduce", 0xfba28d4717a335c9),
        ("fuzz:23", 17, "leaf0/dead-code-elimination", 0xfba28d4717a335c9),
        ("fuzz:23", 36, "leaf2/jump-optimization", 0xfba28d4717a335c9),
        ("fuzz:23", 40, "leaf3/copy-propagation", 0xdcf7db7c36e93ca6),
        ("fuzz:24", 1, "leaf0/constant-fold", 0xa449324fa25a6512),
        ("fuzz:24", 3, "leaf0/local-cse", 0xa449324fa25a6512),
        ("fuzz:24", 8, "leaf1/strength-reduce", 0xa449324fa25a6512),
        ("fuzz:24", 17, "leaf2/dead-code-elimination", 0xb8cba94bf445bc41),
        ("fuzz:24", 36, "mid0/jump-optimization", 0xa85b57c473d3434b),
        ("fuzz:24", 40, "mid0/copy-propagation", 0xecc15462e7e5b1dd),
        ("fuzz:25", 1, "leaf0/constant-fold", 0xa77d670451b4d2a1),
        ("fuzz:25", 3, "leaf0/local-cse", 0xa77d670451b4d2a1),
        ("fuzz:25", 8, "leaf1/strength-reduce", 0xa77d670451b4d2a1),
        ("fuzz:25", 17, "leaf1/dead-code-elimination", 0xa77d670451b4d2a1),
        ("fuzz:25", 36, "mid0/jump-optimization", 0xa77d670451b4d2a1),
        ("fuzz:25", 40, "mid0/copy-propagation", 0xa77d670451b4d2a1),
        ("fuzz:26", 1, "leaf0/constant-fold", 0xf62c0ae8916eb849),
        ("fuzz:26", 3, "leaf0/local-cse", 0xf62c0ae8916eb849),
        ("fuzz:26", 8, "leaf1/strength-reduce", 0xf62c0ae8916eb849),
        ("fuzz:26", 17, "leaf1/dead-code-elimination", 0xf62c0ae8916eb849),
        ("fuzz:26", 36, "mid0/jump-optimization", 0x47644fbea73ccb2d),
        ("fuzz:26", 40, "mid0/copy-propagation", 0x6af7d5ee25a27432),
        ("fuzz:27", 1, "leaf0/constant-fold", 0x5cfd2bed96f003f0),
        ("fuzz:27", 3, "leaf0/local-cse", 0x5cfd2bed96f003f0),
        ("fuzz:27", 8, "leaf1/strength-reduce", 0x5cfd2bed96f003f0),
        ("fuzz:27", 17, "leaf2/dead-code-elimination", 0x5cfd2bed96f003f0),
        ("fuzz:27", 36, "mid0/jump-optimization", 0x5cfd2bed96f003f0),
        ("fuzz:27", 40, "mid1/copy-propagation", 0x2f612a9f975cb48c),
        ("fuzz:28", 1, "leaf0/constant-fold", 0x02cc26231df19351),
        ("fuzz:28", 3, "leaf0/local-cse", 0x02cc26231df19351),
        ("fuzz:28", 8, "leaf1/strength-reduce", 0x02cc26231df19351),
        ("fuzz:28", 17, "leaf2/dead-code-elimination", 0xc4094121677be60e),
        ("fuzz:28", 36, "mid0/jump-optimization", 0x02cc26231df19351),
        ("fuzz:28", 40, "mid0/copy-propagation", 0x02cc26231df19351),
        ("fuzz:29", 1, "leaf0/constant-fold", 0x6c3215dfa6ed60e5),
        ("fuzz:29", 3, "leaf0/local-cse", 0x6c3215dfa6ed60e5),
        ("fuzz:29", 8, "leaf1/strength-reduce", 0x6c3215dfa6ed60e5),
        ("fuzz:29", 17, "leaf2/dead-code-elimination", 0xda6e51070b107fe8),
        ("fuzz:29", 36, "leaf3/jump-optimization", 0x6c3215dfa6ed60e5),
        ("fuzz:29", 40, "mid0/copy-propagation", 0x8d0ef3ef7fd63c24),
        ("fuzz:30", 1, "leaf0/constant-fold", 0xe70b5b4edd0d56d8),
        ("fuzz:30", 3, "leaf0/local-cse", 0xe70b5b4edd0d56d8),
        ("fuzz:30", 8, "leaf1/strength-reduce", 0xe70b5b4edd0d56d8),
        ("fuzz:30", 17, "leaf2/dead-code-elimination", 0xe70b5b4edd0d56d8),
        ("fuzz:30", 36, "mid0/jump-optimization", 0xe70b5b4edd0d56d8),
        ("fuzz:30", 40, "mid1/copy-propagation", 0xfce3d6f85e10fc24),
        ("fuzz:31", 1, "leaf0/constant-fold", 0xbad4d43dd0d69e17),
        ("fuzz:31", 3, "leaf0/local-cse", 0xbad4d43dd0d69e17),
        ("fuzz:31", 8, "leaf1/strength-reduce", 0xbad4d43dd0d69e17),
        ("fuzz:31", 17, "leaf2/dead-code-elimination", 0xbad4d43dd0d69e17),
        ("fuzz:31", 36, "leaf3/jump-optimization", 0xbad4d43dd0d69e17),
        ("fuzz:31", 40, "mid0/copy-propagation", 0x7b00dce44522e102),
    ];
    let mut got = Vec::new();
    for (name, inlined) in corpus() {
        for n in FAULT_HITS {
            let fault = FaultPlan::new();
            fault.arm("opt:pass", n);
            let mut module = inlined.clone();
            let (_, skipped, _) = optimize_module_isolated(&mut module, &fault);
            let skipped: Vec<String> = skipped
                .iter()
                .map(|s| format!("{}/{}", s.func, s.pass))
                .collect();
            got.push((name.as_str(), n, skipped.join(" "), il_hash(&module)));
        }
    }
    let row = |(n, hit, s, o): (&str, u64, &str, u64)| {
        format!("        (\"{n}\", {hit}, \"{s}\", 0x{o:016x}),")
    };
    assert_table(
        "faulted IL",
        got.iter().map(|(n, h, s, o)| row((n, *h, s, *o))).collect(),
        expected
            .iter()
            .map(|&(n, h, s, o)| row((n, h, s, o)))
            .collect(),
    );
}

/// Each pass invocation of the optimizer's pipeline, run round after
/// round on every function of every input, reports a change exactly when
/// it changed the function.
#[test]
fn pass_change_counts_match_body_changes() {
    type Pass = fn(&mut Function) -> usize;
    let passes: [(&str, Pass); 6] = [
        ("constant-fold", constant_fold),
        ("strength-reduce", strength_reduce),
        ("local-cse", local_cse),
        ("copy-propagation", copy_propagation),
        ("dead-code-elimination", dead_code_elimination),
        ("jump-optimization", jump_optimization),
    ];
    for (name, inlined) in corpus() {
        for func in &inlined.functions {
            let mut f = func.clone();
            for round in 1..=MAX_FIXPOINT_ROUNDS + 1 {
                let mut changed = 0;
                for (pass, run) in passes {
                    let before = f.clone();
                    let n = run(&mut f);
                    assert_eq!(
                        n > 0,
                        f != before,
                        "{name}/{}: {pass} reported {n} changes in round {round}",
                        f.name
                    );
                    changed += n;
                }
                if changed == 0 {
                    break;
                }
            }
        }
    }
}

/// Optimizing an optimized module reports no change and leaves its IL as
/// it was.
#[test]
fn reoptimizing_reports_no_change() {
    for (name, inlined) in corpus() {
        let mut module = inlined.clone();
        optimize_module(&mut module);
        let once = module_to_string(&module);
        assert_eq!(
            optimize_module(&mut module),
            0,
            "{name}: re-optimizing reported changes"
        );
        assert_eq!(
            module_to_string(&module),
            once,
            "{name}: re-optimizing changed the IL"
        );
    }
}
