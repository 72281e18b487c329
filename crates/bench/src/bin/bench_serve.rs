//! Standalone serving benchmark: runs the [`snn_bench::serve_sweep`]
//! scenario (naive `run` baseline, then the streaming server) and writes
//! `BENCH_serve.json` to the current directory — the same schema the
//! `end_to_end` criterion harness produces, minus the criterion `results`
//! rows (written as an empty array so `bench_trend` parses either file).
//!
//! Use this when iterating on the serving path: it skips the criterion
//! groups and finishes in seconds.  The committed `BENCH_serve.json` is
//! regenerated by `cargo bench --bench end_to_end`, which embeds the same
//! sweep body.

use snn_bench::serve_sweep;

fn main() {
    let body = serve_sweep::sweep_body();
    let json = format!("{{\n{body},\n\"results\": []\n}}\n");
    let path = "BENCH_serve.json";
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
