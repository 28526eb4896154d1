//! Golden-snapshot regression suite over the paper-figure emitters.
//!
//! Each test renders one deterministic artifact (`pim_bench::golden`) and
//! diffs it against the checked-in golden file under `tests/golden/`:
//! string values and integers must match exactly, floats within `1e-9`.
//!
//! **Bless path** — after an intentional model change, regenerate the
//! golden files and commit them alongside the change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_figures
//! ```
//!
//! The diff is reported per key, so an unintentional drift names the
//! exact figure cell that moved. Checkpoint goldens (`*.ckpt`) pin
//! checkpoint text byte for byte instead: the resolved checkpoint a
//! resume reads, and the raw file (snapshot plus journal) it is read from.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

/// Float comparison tolerance (absolute, and relative to the golden
/// value's magnitude).
const FLOAT_TOLERANCE: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Extracts the flat `"key": value` pairs from a golden artifact. Values
/// stay raw strings; section openers (`"counters": {`) are skipped.
fn entries(json: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((key, value)) = rest.split_once("\": ") else { continue };
        let value = value.trim();
        if value.starts_with('{') {
            continue;
        }
        let clash = map.insert(key.to_string(), value.to_string());
        assert!(clash.is_none(), "duplicate key {key:?} in artifact");
    }
    map
}

fn looks_like_float(value: &str) -> bool {
    value.contains('.') || value.contains('e') || value.contains('E')
}

/// The golden text of `name`, or `None` after writing `actual` in its
/// place under `GOLDEN_BLESS`.
fn golden_or_bless(name: &str, actual: &str) -> Option<String> {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&path, actual).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return None;
    }
    Some(fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; bless it with `GOLDEN_BLESS=1 cargo test --test golden_figures`",
            path.display()
        )
    }))
}

fn assert_matches_golden(name: &str, actual: &str) {
    let Some(expected) = golden_or_bless(name, actual) else { return };
    let exp = entries(&expected);
    let act = entries(actual);
    let missing: Vec<_> = exp.keys().filter(|k| !act.contains_key(*k)).collect();
    let extra: Vec<_> = act.keys().filter(|k| !exp.contains_key(*k)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{name}: key set drifted (missing {missing:?}, unexpected {extra:?}); \
         if intentional, re-bless with GOLDEN_BLESS=1"
    );
    for (key, e) in &exp {
        let a = &act[key];
        if e.starts_with('"') {
            assert_eq!(a, e, "{name}: string value drifted at {key}");
        } else if looks_like_float(e) || looks_like_float(a) {
            let ev: f64 = e.parse().unwrap_or_else(|_| panic!("{name}: bad golden float at {key}"));
            let av: f64 =
                a.parse().unwrap_or_else(|_| panic!("{name}: bad measured float at {key}"));
            let tol = FLOAT_TOLERANCE * ev.abs().max(1.0);
            assert!(
                (ev - av).abs() <= tol,
                "{name}: float drifted at {key}: golden {ev} vs measured {av} (tol {tol:e}); \
                 if intentional, re-bless with GOLDEN_BLESS=1"
            );
        } else {
            assert_eq!(a, e, "{name}: integer drifted at {key}; if intentional, re-bless");
        }
    }
}

#[test]
fn fig3b_throughput_matches_golden() {
    assert_matches_golden("fig3b_throughput.json", &pim_bench::golden::throughput_golden());
}

#[test]
fn table1_variation_matches_golden() {
    assert_matches_golden("table1_variation.json", &pim_bench::golden::variation_golden(42));
}

#[test]
fn area_overhead_matches_golden() {
    assert_matches_golden("area_overhead.json", &pim_bench::golden::area_golden());
}

#[test]
fn assembly_cost_model_matches_golden() {
    assert_matches_golden("assembly_model.json", &pim_bench::golden::assembly_model_golden());
}

#[test]
fn pipeline_metrics_match_golden() {
    assert_matches_golden("pipeline_metrics.json", &pim_bench::golden::pipeline_metrics_golden(42));
}

#[test]
fn mapping_metrics_match_golden() {
    assert_matches_golden("mapping_metrics.json", &pim_bench::golden::mapping_metrics_golden(42));
}

/// Byte-exact goldens (checkpoint text), on the same bless path: every
/// byte must match, and a drift names its first differing line.
fn assert_bytes_match_golden(name: &str, actual: &str) {
    let Some(expected) = golden_or_bless(name, actual) else { return };
    if expected != actual {
        let lines = expected.lines().count().max(actual.lines().count());
        let drift = (0..lines)
            .map(|i| (i, expected.lines().nth(i), actual.lines().nth(i)))
            .find(|(_, e, a)| e != a)
            .map_or("a line ending".to_string(), |(i, e, a)| {
                format!("line {}: golden {e:?} vs rendered {a:?}", i + 1)
            });
        panic!("{name}: bytes drifted at {drift}; if intentional, re-bless with GOLDEN_BLESS=1");
    }
}

/// The checkpoint file a streamed session leaves on disk for the hostile
/// checkpoint suite's input (500 bp genome, k = 13, chunks of 8 reads) —
/// the hashmap stage after 3 chunks, or (`traverse`) the graph/traverse
/// boundary — as `(raw bytes, resolved checkpoint text)`.
fn checkpoint_text(tag: &str, traverse: bool) -> (String, String) {
    use pim_assembler::checkpoint::{prepare_dir, StageCheckpoint, CHECKPOINT_FILE};
    use pim_assembler::{PimAssembler, PimAssemblerConfig, Session};
    use pim_genome::reads::ReadSimulator;
    use pim_genome::sequence::DnaSequence;
    use rand::SeedableRng;

    const CHUNK: usize = 8;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
    let genome = DnaSequence::random(&mut rng, 500);
    let reads = ReadSimulator::new(60, 25.0).simulate(&genome, &mut rng);
    let dir = std::env::temp_dir().join(format!("pim-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    prepare_dir(&dir, false).unwrap();
    {
        let config = PimAssemblerConfig::small_test(13).with_chunk_reads(CHUNK).unwrap();
        let mut asm = PimAssembler::new(config);
        let mut session = Session::start(&mut asm, Some(dir.clone())).unwrap();
        let chunks = if traverse { usize::MAX } else { 3 };
        for chunk in reads.chunks(CHUNK).take(chunks) {
            session.feed(chunk).unwrap();
        }
        if traverse {
            session.seal().unwrap();
            session.advance_graph().unwrap();
        }
    }
    let raw = fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap();
    let resolved = StageCheckpoint::load(&dir).unwrap().to_text();
    fs::remove_dir_all(&dir).unwrap();
    (raw, resolved)
}

#[test]
fn hashmap_checkpoint_matches_golden() {
    assert_bytes_match_golden("hashmap_checkpoint.ckpt", &checkpoint_text("hashmap", false).1);
}

#[test]
fn traverse_checkpoint_matches_golden() {
    let (raw, resolved) = checkpoint_text("traverse", true);
    assert_eq!(raw, resolved, "a stage boundary writes a snapshot, with no journal");
    assert_bytes_match_golden("traverse_checkpoint.ckpt", &resolved);
}

/// The raw file behind `hashmap_checkpoint.ckpt`: a snapshot and the
/// journal records appended after it.
#[test]
fn raw_journal_checkpoint_matches_golden() {
    let (raw, resolved) = checkpoint_text("journal", false);
    assert_ne!(raw, resolved, "the third chunk appends a journal record");
    assert_bytes_match_golden("journal_checkpoint.ckpt", &raw);
}

#[test]
fn entry_parser_handles_sections_and_rejects_duplicates() {
    let parsed = entries("{\n  \"counters\": {\n    \"a.b\": 3\n  },\n  \"x\": 1.5\n}\n");
    assert_eq!(parsed.get("a.b").map(String::as_str), Some("3"));
    assert_eq!(parsed.get("x").map(String::as_str), Some("1.5"));
    assert!(!parsed.contains_key("counters"));
}
