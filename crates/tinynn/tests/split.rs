//! Per-layer time split of the FEMNIST CNN: µs per call of every layer's
//! inference forward, training forward and backward, plus minor page
//! faults per call, for the scaled and paper widths at 4 and 16 rows.
//! A diagnosis, not a benchmark: claims stay end-to-end benchmark runs.
//!
//! ```text
//! cargo test --release -p tinynn --test split -- --ignored --nocapture
//! ```
//!
//! Every call sees another batch: 32 distinct batches cycled under 3
//! model seeds, because one batch replayed trains the branch predictor
//! and hides branch costs. Faults come from this process's own
//! `/proc/self/stat` (field 10, `minflt`), read outside the timed region;
//! they read 0 where that file does not exist.

use rand::{Rng, RngExt};
use std::time::Instant;
use tinynn::zoo::{femnist_cnn, CnnConfig};
use tinynn::{loss, rng::seeded, Sequential, Tensor};

const IMG: usize = 16;
const CLASSES: usize = 10;
const BATCHES: usize = 32;
const SEEDS: [u64; 3] = [1, 2, 3];
/// Passes over every (seed, batch) pair; the first warms caches and pools.
const PASSES: usize = 3;

/// Minor page faults of this process so far.
fn minor_faults() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, so minflt (field 10) is the 8th after the ')'.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// A glyph-like batch: mostly background zeros, strokes in (0, 1].
fn batch(rows: usize, rng: &mut impl Rng) -> (Tensor, Vec<u32>) {
    let x = Tensor::from_fn(&[rows, 1, IMG, IMG], |_| {
        if rng.random_range(0.0f32..1.0) < 0.7 {
            0.0
        } else {
            rng.random_range(0.0f32..1.0)
        }
    });
    let y = (0..rows)
        .map(|_| rng.random_range(0..CLASSES as u32))
        .collect();
    (x, y)
}

/// Summed µs and faults of one layer's calls in one mode.
#[derive(Clone, Copy, Default)]
struct Cell {
    us: f64,
    faults: u64,
}

/// Time `f`, adding its wall time and minor faults into `cell`.
fn timed<R>(cell: &mut Cell, f: impl FnOnce() -> R) -> R {
    let faults = minor_faults();
    let start = Instant::now();
    let out = f();
    cell.us += start.elapsed().as_secs_f64() * 1e6;
    cell.faults += minor_faults() - faults;
    out
}

/// Each layer's `[inference, training forward, backward]` over every call.
fn split(models: &[Sequential], batches: &[(Tensor, Vec<u32>)]) -> (Vec<[Cell; 3]>, usize) {
    let layers = models[0].layers();
    let mut cells = vec![[Cell::default(); 3]; layers.len()];
    let mut calls = 0;
    for pass in 0..PASSES {
        if pass == 1 {
            cells = vec![[Cell::default(); 3]; layers.len()];
            calls = 0;
        }
        for model in models {
            let mut offsets = vec![0];
            for layer in layers {
                offsets.push(offsets.last().unwrap() + layer.param_count());
            }
            let p = |i: usize| &model.params()[offsets[i]..offsets[i + 1]];
            for (x, y) in batches {
                calls += 1;
                let mut cur = x.clone();
                for (i, layer) in layers.iter().enumerate() {
                    cur = timed(&mut cells[i][0], || layer.forward(p(i), &cur, false)).0;
                }
                let mut tape: Vec<(Tensor, tinynn::Cache)> = Vec::new();
                for (i, layer) in layers.iter().enumerate() {
                    let input = tape.last().map_or(x, |(out, _)| out);
                    let step = timed(&mut cells[i][1], || layer.forward(p(i), input, true));
                    tape.push(step);
                }
                let (_, mut g) = loss::softmax_cross_entropy(&tape.last().unwrap().0, y);
                let mut grads = vec![0.0f32; model.param_count()];
                for (i, layer) in layers.iter().enumerate().rev() {
                    let input = if i == 0 { x } else { &tape[i - 1].0 };
                    let gp = &mut grads[offsets[i]..offsets[i + 1]];
                    let dy = std::mem::replace(&mut g, Tensor::zeros(&[0]));
                    let out = timed(&mut cells[i][2], || {
                        layer.backward(p(i), input, &tape[i].1, dy, gp, i > 0)
                    });
                    if let Some(gx) = out {
                        g = gx;
                    }
                }
            }
        }
    }
    (cells, calls)
}

#[test]
#[ignore = "a timing report: run in release with --ignored --nocapture"]
fn cnn_layer_split() {
    println!(
        "# kernel width: {} ({IMG}×{IMG} images, {BATCHES} batches × {} seeds, {} timed passes)",
        tinynn::kernel_width(),
        SEEDS.len(),
        PASSES - 1
    );
    for (name, cfg) in [
        ("scaled", CnnConfig::scaled()),
        ("paper", CnnConfig::paper()),
    ] {
        for rows in [4usize, 16] {
            let models: Vec<Sequential> = SEEDS
                .iter()
                .map(|&s| femnist_cnn(IMG, CLASSES, cfg, &mut seeded(s)))
                .collect();
            let mut rng = seeded(rows as u64);
            let batches: Vec<_> = (0..BATCHES).map(|_| batch(rows, &mut rng)).collect();
            let (cells, calls) = split(&models, &batches);
            println!("\n{name} CNN, {rows} rows: µs per call (minor faults per call)\n");
            println!("| layer | inference | train forward | backward |");
            println!("|---|---|---|---|");
            let mut total = [Cell::default(); 3];
            let cell = |c: Cell| {
                format!(
                    "{:.1} ({:.1})",
                    c.us / calls as f64,
                    c.faults as f64 / calls as f64
                )
            };
            for (i, (layer, row)) in models[0].layers().iter().zip(&cells).enumerate() {
                for (t, c) in total.iter_mut().zip(row) {
                    t.us += c.us;
                    t.faults += c.faults;
                }
                let [inf, fwd, bwd] = row.map(cell);
                println!("| {i} {} | {inf} | {fwd} | {bwd} |", layer.name());
            }
            let [inf, fwd, bwd] = total.map(cell);
            println!("| total | {inf} | {fwd} | {bwd} |");
        }
    }
}
