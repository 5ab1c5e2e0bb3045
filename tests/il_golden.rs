//! IL snapshots: for every bundled benchmark and a fixed fuzz corpus, the
//! printed IL after inlining and after optimization, hashed, and after
//! optimization with one pass invocation forced to panic. Any change to
//! expansion, renaming, an optimizer pass or pass isolation that alters
//! the emitted IL fails here even when program outputs stay the same.
//! (`crates/workloads/tests/golden.rs` pins program outputs.) The same
//! inputs check that the optimizer's change counts mean what they say,
//! and that its fixpoint leaves no copy that coalescing would delete.

use std::sync::OnceLock;

use impact::cfront::{compile, Source};
use impact::il::{module_to_string, Function, Inst, Module};
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
        ("cccp", 0xd8c37b63fec8d15f, 0x2480bf3ca2ca1b6d),
        ("cmp", 0xe42f1c537d425fec, 0x3442cea66a955c05),
        ("compress", 0x2b55ad302091ebdd, 0x348f4406ca46a5cf),
        ("eqn", 0xf0505848cc5d8eb0, 0x9330be33d9e0cbd3),
        ("espresso", 0x6a524193bc6159f8, 0x84bbe3aaebd484cc),
        ("grep", 0x12f0f3cda05fefbb, 0xe928773779cb409c),
        ("lex", 0x685d79dbe576c743, 0x8a6de131f2f197c8),
        ("make", 0x434d481cda5240c5, 0x654769cf4fef086b),
        ("tar", 0xf38e1abf49d3b651, 0x95b2c4abe3de93bc),
        ("tee", 0x13cccf03a9e179d2, 0x8f838739c3bd8f09),
        ("wc", 0x211294a97de49df4, 0x47276ea8ca240706),
        ("yacc", 0xf1258c2cd832a354, 0x945d07f2c5a99a78),
        ("fuzz:0", 0xf4aabee09eed689e, 0xa3df4e323b9bb1c5),
        ("fuzz:1", 0xc0e7431077a2049d, 0x9ef38723fdef52ea),
        ("fuzz:2", 0x0af27acb68dcc3d4, 0x6addb137ae58a6fb),
        ("fuzz:3", 0x1075ebe0f42e35f2, 0xef66b2318811a7f8),
        ("fuzz:4", 0xdf805cfde864004d, 0x1e558179c9708c86),
        ("fuzz:5", 0x7a3dc44d92333249, 0xdd5505b9a89d31f4),
        ("fuzz:6", 0xbea26da5e840e1a0, 0x583ae684e71bbe55),
        ("fuzz:7", 0xca97cb4d2ec4a5df, 0x422814ae36a44147),
        ("fuzz:8", 0x2f2efaac20a6d04e, 0xe798c4856183d520),
        ("fuzz:9", 0x1c07e6467828a516, 0x6239a75fa74c44b4),
        ("fuzz:10", 0x8066cb5b227f49da, 0x8a92f9ea40dbcc84),
        ("fuzz:11", 0x441c008992437e68, 0x0ce11a5086598d32),
        ("fuzz:12", 0xb255705e0930280f, 0xa97d8399c7a2f403),
        ("fuzz:13", 0xf0bf56400fed2e73, 0x918ccb408e904360),
        ("fuzz:14", 0xdbbbc036e83cd0e4, 0x48f78701914db8b0),
        ("fuzz:15", 0x29c93f2b34f5fe4a, 0xe2cb64b480d37f7e),
        ("fuzz:16", 0x8f6a91d24e600fdb, 0x6cbbb4dd09302833),
        ("fuzz:17", 0x0b4a23fcf05cbe7d, 0xa8b7a3eaf3d0c975),
        ("fuzz:18", 0xfd0ce519c976126d, 0xc347c6bb424b3a9e),
        ("fuzz:19", 0x7ebcf4ed5bd4dd5c, 0x31eade9178788a3f),
        ("fuzz:20", 0x4751abe312e4872a, 0x83e01b3910332b01),
        ("fuzz:21", 0x7b944bfa6c040e3f, 0xf605bb002d37740f),
        ("fuzz:22", 0x7641786f0e887785, 0x0bba3f4c6c9031ad),
        ("fuzz:23", 0x20a2e3a621c223b7, 0x8a2ad1fedb22a9fb),
        ("fuzz:24", 0x640d344827d119ab, 0x02ee240ffee05489),
        ("fuzz:25", 0xf36e004ac5028b9d, 0x084c0e0f2b3b8fc5),
        ("fuzz:26", 0xa579b98a94b0e460, 0xf4221b560b839b66),
        ("fuzz:27", 0xaf400e2192652689, 0x2e971881fea6b2fc),
        ("fuzz:28", 0x60d63fcc2ee4128c, 0x01d4d7ae35113fc6),
        ("fuzz:29", 0x5fe6ec090e71aafd, 0x09783eba1447709e),
        ("fuzz:30", 0xea5156c8d16d2fe2, 0x57a47b0927c12f03),
        ("fuzz:31", 0x436902684b73a4d8, 0x015a13a40bce82ed),
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
        ("cccp", 1, "in_fill/constant-fold", 0x2480bf3ca2ca1b6d),
        ("cccp", 3, "in_fill/local-cse", 0xb49a4be8c8ed2efe),
        ("cccp", 8, "in_fill/strength-reduce", 0x2480bf3ca2ca1b6d),
        ("cccp", 17, "in_fill/dead-code-elimination", 0x6a5572d9bdc1658a),
        ("cccp", 36, "in_byte/jump-optimization", 0x2480bf3ca2ca1b6d),
        ("cccp", 40, "in_byte/copy-propagation", 0x2480bf3ca2ca1b6d),
        ("cmp", 1, "in_fill/constant-fold", 0x3442cea66a955c05),
        ("cmp", 3, "in_fill/local-cse", 0xf4058553047088ca),
        ("cmp", 8, "in_fill/strength-reduce", 0x3442cea66a955c05),
        ("cmp", 17, "in_fill/dead-code-elimination", 0x8c08839831f6b93a),
        ("cmp", 36, "in_byte/jump-optimization", 0x3442cea66a955c05),
        ("cmp", 40, "in_byte/copy-propagation", 0x3442cea66a955c05),
        ("compress", 1, "in_fill/constant-fold", 0x348f4406ca46a5cf),
        ("compress", 3, "in_fill/local-cse", 0x312df5262d4b89f6),
        ("compress", 8, "in_fill/strength-reduce", 0x348f4406ca46a5cf),
        ("compress", 17, "in_fill/dead-code-elimination", 0x9fb8234ba08705ba),
        ("compress", 36, "in_byte/jump-optimization", 0x348f4406ca46a5cf),
        ("compress", 40, "in_byte/copy-propagation", 0x348f4406ca46a5cf),
        ("eqn", 1, "in_fill/constant-fold", 0x9330be33d9e0cbd3),
        ("eqn", 3, "in_fill/local-cse", 0x930911ddfc3ef784),
        ("eqn", 8, "in_fill/strength-reduce", 0x9330be33d9e0cbd3),
        ("eqn", 17, "in_fill/dead-code-elimination", 0x3cec901f42a748f4),
        ("eqn", 36, "in_byte/jump-optimization", 0x9330be33d9e0cbd3),
        ("eqn", 40, "in_byte/copy-propagation", 0x9330be33d9e0cbd3),
        ("espresso", 1, "in_fill/constant-fold", 0x84bbe3aaebd484cc),
        ("espresso", 3, "in_fill/local-cse", 0x108228442e5cde83),
        ("espresso", 8, "in_fill/strength-reduce", 0x84bbe3aaebd484cc),
        ("espresso", 17, "in_fill/dead-code-elimination", 0x9fb8c2dff7f1dd9b),
        ("espresso", 36, "in_byte/jump-optimization", 0x84bbe3aaebd484cc),
        ("espresso", 40, "in_byte/copy-propagation", 0x84bbe3aaebd484cc),
        ("grep", 1, "in_fill/constant-fold", 0xe928773779cb409c),
        ("grep", 3, "in_fill/local-cse", 0xe0921477e6fe4af9),
        ("grep", 8, "in_fill/strength-reduce", 0xe928773779cb409c),
        ("grep", 17, "in_fill/dead-code-elimination", 0x764d2d04c13249a9),
        ("grep", 36, "in_byte/jump-optimization", 0xe928773779cb409c),
        ("grep", 40, "in_byte/copy-propagation", 0xe928773779cb409c),
        ("lex", 1, "in_fill/constant-fold", 0x8a6de131f2f197c8),
        ("lex", 3, "in_fill/local-cse", 0xe9d2c3aebd11c76b),
        ("lex", 8, "in_fill/strength-reduce", 0x8a6de131f2f197c8),
        ("lex", 17, "in_fill/dead-code-elimination", 0xdf0cd512b0b1d033),
        ("lex", 36, "in_byte/jump-optimization", 0x8a6de131f2f197c8),
        ("lex", 40, "in_byte/copy-propagation", 0x8a6de131f2f197c8),
        ("make", 1, "in_fill/constant-fold", 0x654769cf4fef086b),
        ("make", 3, "in_fill/local-cse", 0x914d0184ace7641e),
        ("make", 8, "in_fill/strength-reduce", 0x654769cf4fef086b),
        ("make", 17, "in_fill/dead-code-elimination", 0xb81acf7172db17ca),
        ("make", 36, "in_byte/jump-optimization", 0x654769cf4fef086b),
        ("make", 40, "in_byte/copy-propagation", 0x654769cf4fef086b),
        ("tar", 1, "in_fill/constant-fold", 0x95b2c4abe3de93bc),
        ("tar", 3, "in_fill/local-cse", 0x714809794be83a37),
        ("tar", 8, "in_fill/strength-reduce", 0x95b2c4abe3de93bc),
        ("tar", 17, "in_fill/dead-code-elimination", 0xdb8d63a311fc537b),
        ("tar", 36, "in_byte/jump-optimization", 0x95b2c4abe3de93bc),
        ("tar", 40, "in_byte/copy-propagation", 0x95b2c4abe3de93bc),
        ("tee", 1, "in_fill/constant-fold", 0x8f838739c3bd8f09),
        ("tee", 3, "in_fill/local-cse", 0x97b2a9e4c6da6528),
        ("tee", 8, "in_fill/strength-reduce", 0x8f838739c3bd8f09),
        ("tee", 17, "in_fill/dead-code-elimination", 0x7ccae95a53c80b24),
        ("tee", 36, "in_byte/jump-optimization", 0x8f838739c3bd8f09),
        ("tee", 40, "in_byte/copy-propagation", 0x8f838739c3bd8f09),
        ("wc", 1, "in_fill/constant-fold", 0x47276ea8ca240706),
        ("wc", 3, "in_fill/local-cse", 0x4f9885264f229be1),
        ("wc", 8, "in_fill/strength-reduce", 0x47276ea8ca240706),
        ("wc", 17, "in_fill/dead-code-elimination", 0x0c35a4e3195a9bf1),
        ("wc", 36, "in_byte/jump-optimization", 0x47276ea8ca240706),
        ("wc", 40, "in_byte/copy-propagation", 0x47276ea8ca240706),
        ("yacc", 1, "in_fill/constant-fold", 0x945d07f2c5a99a78),
        ("yacc", 3, "in_fill/local-cse", 0xef5a48c8eaaf3bb3),
        ("yacc", 8, "in_fill/strength-reduce", 0x945d07f2c5a99a78),
        ("yacc", 17, "in_fill/dead-code-elimination", 0x2e220d5273f495ff),
        ("yacc", 36, "in_byte/jump-optimization", 0x945d07f2c5a99a78),
        ("yacc", 40, "in_byte/copy-propagation", 0x945d07f2c5a99a78),
        ("fuzz:0", 1, "leaf0/constant-fold", 0xa3df4e323b9bb1c5),
        ("fuzz:0", 3, "leaf0/local-cse", 0xa3df4e323b9bb1c5),
        ("fuzz:0", 8, "leaf1/strength-reduce", 0x7d77a78806cd3085),
        ("fuzz:0", 17, "leaf1/dead-code-elimination", 0xa3df4e323b9bb1c5),
        ("fuzz:0", 36, "leaf3/jump-optimization", 0xa3df4e323b9bb1c5),
        ("fuzz:0", 40, "mid0/copy-propagation", 0x6fb6a283239c85c7),
        ("fuzz:1", 1, "leaf0/constant-fold", 0x9ef38723fdef52ea),
        ("fuzz:1", 3, "leaf0/local-cse", 0x9ef38723fdef52ea),
        ("fuzz:1", 8, "leaf1/strength-reduce", 0x9ef38723fdef52ea),
        ("fuzz:1", 17, "leaf2/dead-code-elimination", 0x9ef38723fdef52ea),
        ("fuzz:1", 36, "mid0/jump-optimization", 0x9ef38723fdef52ea),
        ("fuzz:1", 40, "mid1/copy-propagation", 0x362c74baec6ddf65),
        ("fuzz:2", 1, "leaf0/constant-fold", 0x6addb137ae58a6fb),
        ("fuzz:2", 3, "leaf0/local-cse", 0x6addb137ae58a6fb),
        ("fuzz:2", 8, "leaf1/strength-reduce", 0x6addb137ae58a6fb),
        ("fuzz:2", 17, "leaf1/dead-code-elimination", 0x6addb137ae58a6fb),
        ("fuzz:2", 36, "mid0/jump-optimization", 0x6addb137ae58a6fb),
        ("fuzz:2", 40, "mid0/copy-propagation", 0x6addb137ae58a6fb),
        ("fuzz:3", 1, "leaf0/constant-fold", 0x140773751665dccd),
        ("fuzz:3", 3, "leaf0/local-cse", 0xb90f80da232bfab5),
        ("fuzz:3", 8, "leaf0/strength-reduce", 0xef66b2318811a7f8),
        ("fuzz:3", 17, "leaf1/dead-code-elimination", 0xef66b2318811a7f8),
        ("fuzz:3", 36, "mid0/jump-optimization", 0xef66b2318811a7f8),
        ("fuzz:3", 40, "mid1/copy-propagation", 0x858b6295f5f4d9f2),
        ("fuzz:4", 1, "leaf0/constant-fold", 0x1e558179c9708c86),
        ("fuzz:4", 3, "leaf0/local-cse", 0x1e558179c9708c86),
        ("fuzz:4", 8, "leaf1/strength-reduce", 0x1e558179c9708c86),
        ("fuzz:4", 17, "leaf1/dead-code-elimination", 0x1e558179c9708c86),
        ("fuzz:4", 36, "mid0/jump-optimization", 0x1e558179c9708c86),
        ("fuzz:4", 40, "mid0/copy-propagation", 0x1e558179c9708c86),
        ("fuzz:5", 1, "leaf0/constant-fold", 0xdd5505b9a89d31f4),
        ("fuzz:5", 3, "leaf0/local-cse", 0xdd5505b9a89d31f4),
        ("fuzz:5", 8, "leaf0/strength-reduce", 0xdd5505b9a89d31f4),
        ("fuzz:5", 17, "leaf1/dead-code-elimination", 0xdd5505b9a89d31f4),
        ("fuzz:5", 36, "mid0/jump-optimization", 0x75c7038e75a57d73),
        ("fuzz:5", 40, "mid0/copy-propagation", 0xdd5505b9a89d31f4),
        ("fuzz:6", 1, "leaf0/constant-fold", 0x583ae684e71bbe55),
        ("fuzz:6", 3, "leaf0/local-cse", 0x583ae684e71bbe55),
        ("fuzz:6", 8, "leaf1/strength-reduce", 0x583ae684e71bbe55),
        ("fuzz:6", 17, "leaf1/dead-code-elimination", 0x583ae684e71bbe55),
        ("fuzz:6", 36, "leaf3/jump-optimization", 0x583ae684e71bbe55),
        ("fuzz:6", 40, "mid0/copy-propagation", 0xb02b01be60bb2475),
        ("fuzz:7", 1, "leaf0/constant-fold", 0x422814ae36a44147),
        ("fuzz:7", 3, "leaf0/local-cse", 0x422814ae36a44147),
        ("fuzz:7", 8, "leaf1/strength-reduce", 0x422814ae36a44147),
        ("fuzz:7", 17, "leaf2/dead-code-elimination", 0x3505909ccc060dc6),
        ("fuzz:7", 36, "mid0/jump-optimization", 0x422814ae36a44147),
        ("fuzz:7", 40, "mid0/copy-propagation", 0x422814ae36a44147),
        ("fuzz:8", 1, "leaf0/constant-fold", 0xe798c4856183d520),
        ("fuzz:8", 3, "leaf0/local-cse", 0xe798c4856183d520),
        ("fuzz:8", 8, "leaf1/strength-reduce", 0xe798c4856183d520),
        ("fuzz:8", 17, "leaf1/dead-code-elimination", 0xe798c4856183d520),
        ("fuzz:8", 36, "mid0/jump-optimization", 0xe798c4856183d520),
        ("fuzz:8", 40, "mid0/copy-propagation", 0xe798c4856183d520),
        ("fuzz:9", 1, "leaf0/constant-fold", 0x6239a75fa74c44b4),
        ("fuzz:9", 3, "leaf0/local-cse", 0x6239a75fa74c44b4),
        ("fuzz:9", 8, "leaf1/strength-reduce", 0x6239a75fa74c44b4),
        ("fuzz:9", 17, "leaf2/dead-code-elimination", 0x10fbe0406e08ac75),
        ("fuzz:9", 36, "leaf2/jump-optimization", 0x6239a75fa74c44b4),
        ("fuzz:9", 40, "leaf3/copy-propagation", 0x6239a75fa74c44b4),
        ("fuzz:10", 1, "leaf0/constant-fold", 0x8a92f9ea40dbcc84),
        ("fuzz:10", 3, "leaf0/local-cse", 0x8a92f9ea40dbcc84),
        ("fuzz:10", 8, "leaf1/strength-reduce", 0x8a92f9ea40dbcc84),
        ("fuzz:10", 17, "mid0/dead-code-elimination", 0xd16e08545330bf80),
        ("fuzz:10", 36, "mid1/jump-optimization", 0x1da425702a41a6da),
        ("fuzz:10", 40, "mid1/copy-propagation", 0x905aa660c51756cc),
        ("fuzz:11", 1, "leaf0/constant-fold", 0x0ce11a5086598d32),
        ("fuzz:11", 3, "leaf0/local-cse", 0x0ce11a5086598d32),
        ("fuzz:11", 8, "leaf1/strength-reduce", 0x0ce11a5086598d32),
        ("fuzz:11", 17, "leaf1/dead-code-elimination", 0x0ce11a5086598d32),
        ("fuzz:11", 36, "mid0/jump-optimization", 0x0ce11a5086598d32),
        ("fuzz:11", 40, "mid0/copy-propagation", 0x0ce11a5086598d32),
        ("fuzz:12", 1, "leaf0/constant-fold", 0x540096102cd11a37),
        ("fuzz:12", 3, "leaf0/local-cse", 0xa97d8399c7a2f403),
        ("fuzz:12", 8, "leaf0/strength-reduce", 0xa97d8399c7a2f403),
        ("fuzz:12", 17, "leaf1/dead-code-elimination", 0x62deea935fc70c1e),
        ("fuzz:12", 36, "leaf2/jump-optimization", 0xa97d8399c7a2f403),
        ("fuzz:12", 40, "mid0/copy-propagation", 0xf186b43edf286a67),
        ("fuzz:13", 1, "leaf0/constant-fold", 0x918ccb408e904360),
        ("fuzz:13", 3, "leaf0/local-cse", 0x918ccb408e904360),
        ("fuzz:13", 8, "leaf1/strength-reduce", 0x918ccb408e904360),
        ("fuzz:13", 17, "leaf1/dead-code-elimination", 0x918ccb408e904360),
        ("fuzz:13", 36, "leaf2/jump-optimization", 0x918ccb408e904360),
        ("fuzz:13", 40, "leaf3/copy-propagation", 0x08c410ba3cd9f190),
        ("fuzz:14", 1, "leaf0/constant-fold", 0x533b689bacec9bbd),
        ("fuzz:14", 3, "leaf0/local-cse", 0x48f78701914db8b0),
        ("fuzz:14", 8, "leaf0/strength-reduce", 0x48f78701914db8b0),
        ("fuzz:14", 17, "leaf0/dead-code-elimination", 0x48f78701914db8b0),
        ("fuzz:14", 36, "leaf2/jump-optimization", 0x48f78701914db8b0),
        ("fuzz:14", 40, "leaf2/copy-propagation", 0x48f78701914db8b0),
        ("fuzz:15", 1, "leaf0/constant-fold", 0x6cf5beaa2a2302e8),
        ("fuzz:15", 3, "leaf0/local-cse", 0xe2cb64b480d37f7e),
        ("fuzz:15", 8, "leaf0/strength-reduce", 0xe2cb64b480d37f7e),
        ("fuzz:15", 17, "leaf1/dead-code-elimination", 0xe2cb64b480d37f7e),
        ("fuzz:15", 36, "mid0/jump-optimization", 0x666f915ec41a5552),
        ("fuzz:15", 40, "mid0/copy-propagation", 0x9f921c511d532da4),
        ("fuzz:16", 1, "leaf0/constant-fold", 0x6ca38171cd75f439),
        ("fuzz:16", 3, "leaf0/local-cse", 0x189d4724355df921),
        ("fuzz:16", 8, "leaf0/strength-reduce", 0x6cbbb4dd09302833),
        ("fuzz:16", 17, "leaf1/dead-code-elimination", 0x6cbbb4dd09302833),
        ("fuzz:16", 36, "mid0/jump-optimization", 0x6cbbb4dd09302833),
        ("fuzz:16", 40, "mid0/copy-propagation", 0x6cbbb4dd09302833),
        ("fuzz:17", 1, "leaf0/constant-fold", 0xa8b7a3eaf3d0c975),
        ("fuzz:17", 3, "leaf0/local-cse", 0xa8b7a3eaf3d0c975),
        ("fuzz:17", 8, "leaf1/strength-reduce", 0xa8b7a3eaf3d0c975),
        ("fuzz:17", 17, "leaf2/dead-code-elimination", 0x67fd8df4e8fd6e96),
        ("fuzz:17", 36, "mid0/jump-optimization", 0xa8b7a3eaf3d0c975),
        ("fuzz:17", 40, "mid0/copy-propagation", 0xf50ac2b14fd744da),
        ("fuzz:18", 1, "leaf0/constant-fold", 0xc347c6bb424b3a9e),
        ("fuzz:18", 3, "leaf0/local-cse", 0xc347c6bb424b3a9e),
        ("fuzz:18", 8, "leaf1/strength-reduce", 0xc347c6bb424b3a9e),
        ("fuzz:18", 17, "mid0/dead-code-elimination", 0x47b0577a466cf006),
        ("fuzz:18", 36, "mid0/jump-optimization", 0xc347c6bb424b3a9e),
        ("fuzz:18", 40, "mid1/copy-propagation", 0x6442b9609236b90e),
        ("fuzz:19", 1, "leaf0/constant-fold", 0x31eade9178788a3f),
        ("fuzz:19", 3, "leaf0/local-cse", 0x31eade9178788a3f),
        ("fuzz:19", 8, "leaf1/strength-reduce", 0x31eade9178788a3f),
        ("fuzz:19", 17, "leaf1/dead-code-elimination", 0x31eade9178788a3f),
        ("fuzz:19", 36, "leaf3/jump-optimization", 0x31eade9178788a3f),
        ("fuzz:19", 40, "mid0/copy-propagation", 0x229b8e2be848674f),
        ("fuzz:20", 1, "leaf0/constant-fold", 0x83e01b3910332b01),
        ("fuzz:20", 3, "leaf0/local-cse", 0x83e01b3910332b01),
        ("fuzz:20", 8, "leaf1/strength-reduce", 0x83e01b3910332b01),
        ("fuzz:20", 17, "mid0/dead-code-elimination", 0x17c5dae4a5ae82ea),
        ("fuzz:20", 36, "cold0/jump-optimization", 0x83e01b3910332b01),
        ("fuzz:20", 40, "srec/copy-propagation", 0x83e01b3910332b01),
        ("fuzz:21", 1, "leaf0/constant-fold", 0x74d140765e7bd3a8),
        ("fuzz:21", 3, "leaf0/local-cse", 0xf605bb002d37740f),
        ("fuzz:21", 8, "leaf0/strength-reduce", 0xf605bb002d37740f),
        ("fuzz:21", 17, "leaf1/dead-code-elimination", 0xf605bb002d37740f),
        ("fuzz:21", 36, "mid0/jump-optimization", 0xf605bb002d37740f),
        ("fuzz:21", 40, "mid0/copy-propagation", 0xf605bb002d37740f),
        ("fuzz:22", 1, "leaf0/constant-fold", 0x9fc20e16a8224f02),
        ("fuzz:22", 3, "leaf0/local-cse", 0x7672341950b08c5d),
        ("fuzz:22", 8, "leaf0/strength-reduce", 0x0bba3f4c6c9031ad),
        ("fuzz:22", 17, "leaf1/dead-code-elimination", 0x4b6cd77139d30ff3),
        ("fuzz:22", 36, "leaf3/jump-optimization", 0x0bba3f4c6c9031ad),
        ("fuzz:22", 40, "mid0/copy-propagation", 0x59e52b83ebe5d96c),
        ("fuzz:23", 1, "leaf0/constant-fold", 0xacce04b24721c897),
        ("fuzz:23", 3, "leaf0/local-cse", 0x8a2ad1fedb22a9fb),
        ("fuzz:23", 8, "leaf0/strength-reduce", 0x8a2ad1fedb22a9fb),
        ("fuzz:23", 17, "leaf1/dead-code-elimination", 0x756eb495b8ccd1d4),
        ("fuzz:23", 36, "leaf3/jump-optimization", 0x8a2ad1fedb22a9fb),
        ("fuzz:23", 40, "leaf3/copy-propagation", 0x8a2ad1fedb22a9fb),
        ("fuzz:24", 1, "leaf0/constant-fold", 0x02ee240ffee05489),
        ("fuzz:24", 3, "leaf0/local-cse", 0x02ee240ffee05489),
        ("fuzz:24", 8, "leaf1/strength-reduce", 0x02ee240ffee05489),
        ("fuzz:24", 17, "leaf2/dead-code-elimination", 0xb95162cf3fd96b1f),
        ("fuzz:24", 36, "mid0/jump-optimization", 0x42f97f1d99d1be48),
        ("fuzz:24", 40, "mid0/copy-propagation", 0x4b1e6a5d56e5a172),
        ("fuzz:25", 1, "leaf0/constant-fold", 0x084c0e0f2b3b8fc5),
        ("fuzz:25", 3, "leaf0/local-cse", 0x084c0e0f2b3b8fc5),
        ("fuzz:25", 8, "leaf1/strength-reduce", 0x084c0e0f2b3b8fc5),
        ("fuzz:25", 17, "leaf1/dead-code-elimination", 0x084c0e0f2b3b8fc5),
        ("fuzz:25", 36, "mid0/jump-optimization", 0x084c0e0f2b3b8fc5),
        ("fuzz:25", 40, "mid0/copy-propagation", 0x084c0e0f2b3b8fc5),
        ("fuzz:26", 1, "leaf0/constant-fold", 0xf4221b560b839b66),
        ("fuzz:26", 3, "leaf0/local-cse", 0xf4221b560b839b66),
        ("fuzz:26", 8, "leaf1/strength-reduce", 0xf4221b560b839b66),
        ("fuzz:26", 17, "leaf1/dead-code-elimination", 0xf4221b560b839b66),
        ("fuzz:26", 36, "mid0/jump-optimization", 0x18c09af28f796c6f),
        ("fuzz:26", 40, "mid0/copy-propagation", 0x859cd6d76e8e5694),
        ("fuzz:27", 1, "leaf0/constant-fold", 0x2e971881fea6b2fc),
        ("fuzz:27", 3, "leaf0/local-cse", 0x2e971881fea6b2fc),
        ("fuzz:27", 8, "leaf1/strength-reduce", 0x2e971881fea6b2fc),
        ("fuzz:27", 17, "leaf2/dead-code-elimination", 0x2e971881fea6b2fc),
        ("fuzz:27", 36, "mid0/jump-optimization", 0x2e971881fea6b2fc),
        ("fuzz:27", 40, "mid1/copy-propagation", 0x3ce4aa98ef272fba),
        ("fuzz:28", 1, "leaf0/constant-fold", 0x01d4d7ae35113fc6),
        ("fuzz:28", 3, "leaf0/local-cse", 0x01d4d7ae35113fc6),
        ("fuzz:28", 8, "leaf1/strength-reduce", 0x01d4d7ae35113fc6),
        ("fuzz:28", 17, "leaf2/dead-code-elimination", 0x9a025f37642d80a1),
        ("fuzz:28", 36, "mid0/jump-optimization", 0x01d4d7ae35113fc6),
        ("fuzz:28", 40, "mid0/copy-propagation", 0x01d4d7ae35113fc6),
        ("fuzz:29", 1, "leaf0/constant-fold", 0x09783eba1447709e),
        ("fuzz:29", 3, "leaf0/local-cse", 0x09783eba1447709e),
        ("fuzz:29", 8, "leaf1/strength-reduce", 0x09783eba1447709e),
        ("fuzz:29", 17, "leaf2/dead-code-elimination", 0x317d71953c5039df),
        ("fuzz:29", 36, "leaf3/jump-optimization", 0x09783eba1447709e),
        ("fuzz:29", 40, "mid0/copy-propagation", 0xf678cb6e4cb81edc),
        ("fuzz:30", 1, "leaf0/constant-fold", 0x57a47b0927c12f03),
        ("fuzz:30", 3, "leaf0/local-cse", 0x57a47b0927c12f03),
        ("fuzz:30", 8, "leaf1/strength-reduce", 0x57a47b0927c12f03),
        ("fuzz:30", 17, "leaf2/dead-code-elimination", 0x57a47b0927c12f03),
        ("fuzz:30", 36, "mid0/jump-optimization", 0x57a47b0927c12f03),
        ("fuzz:30", 40, "mid1/copy-propagation", 0xc34cb3213c5deacd),
        ("fuzz:31", 1, "leaf0/constant-fold", 0x015a13a40bce82ed),
        ("fuzz:31", 3, "leaf0/local-cse", 0x015a13a40bce82ed),
        ("fuzz:31", 8, "leaf1/strength-reduce", 0x015a13a40bce82ed),
        ("fuzz:31", 17, "leaf2/dead-code-elimination", 0x015a13a40bce82ed),
        ("fuzz:31", 36, "leaf3/jump-optimization", 0x015a13a40bce82ed),
        ("fuzz:31", 40, "mid0/copy-propagation", 0x25506c62010031bc),
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

/// The copies in `func` that copy propagation's coalescing rule would
/// delete, as `bB/I`: a copy `y = x` whose source is not a parameter, is
/// defined and read exactly once in the function (the read being the
/// copy), is defined earlier in the copy's block, and whose target is
/// neither read nor written in between.
fn coalescible_copies(func: &Function) -> Vec<String> {
    let mut defs = vec![0u32; func.num_regs as usize];
    let mut uses = vec![0u32; func.num_regs as usize];
    for b in &func.blocks {
        for inst in &b.insts {
            inst.for_each_use(|r| uses[r.index()] += 1);
            if let Some(d) = inst.def() {
                defs[d.index()] += 1;
            }
        }
        b.term.for_each_use(|r| uses[r.index()] += 1);
    }
    let mut found = Vec::new();
    for (bi, b) in func.blocks.iter().enumerate() {
        for (j, inst) in b.insts.iter().enumerate() {
            let Inst::Mov { dst: y, src: x } = *inst else {
                continue;
            };
            if x.0 < func.num_params || defs[x.index()] != 1 || uses[x.index()] != 1 {
                continue;
            }
            let Some(i) = b.insts[..j].iter().rposition(|d| d.def() == Some(x)) else {
                continue;
            };
            let touches_y = |between: &Inst| {
                let mut touched = between.def() == Some(y);
                between.for_each_use(|r| touched |= r == y);
                touched
            };
            if !b.insts[i + 1..j].iter().any(touches_y) {
                found.push(format!("b{bi}/{j}"));
            }
        }
    }
    found
}

/// The optimizer's fixpoint leaves no copy for coalescing to take.
#[test]
fn optimized_corpus_keeps_no_coalescible_copy() {
    for (name, inlined) in corpus() {
        let mut module = inlined.clone();
        optimize_module(&mut module);
        for func in &module.functions {
            let left = coalescible_copies(func);
            assert!(left.is_empty(), "{name}/{}: {left:?}", func.name);
        }
    }
}
