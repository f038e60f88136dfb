//! Per-layer time split of the FEMNIST CNN: µs per call of every layer's
//! inference forward, training forward and backward, plus minor page
//! faults per call, for the scaled and paper widths at 4 and 16 rows; and
//! the same for two whole calls, `Sequential::evaluate` and a training
//! step (`loss_and_grads` and the SGD update, as `Sgd::train_step`).
//! Then the same table for the 212-parameter MLP (`zoo::mlp(8, &[16],
//! 4)`, the model of every benchmark workload but `sim_cnn`) at 4 and 8
//! rows. A diagnosis, not a benchmark: claims stay end-to-end benchmark
//! runs.
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
//!
//! The per-layer rows drive each layer's `forward_into` / `backward_into`
//! the way `Sequential` does, on one set of buffers the harness owns
//! across all calls (as `Sequential` keeps them in its thread's
//! workspace), so after the warm-up pass the faults column shows the
//! steady state; each backward pass ends in the SGD update, so the models
//! train as the whole calls' do. The whole calls run afterwards, on a
//! thread of their own, after the harness's buffers are dropped: they see
//! only the workspace that `Sequential` keeps, as in production.
//!
//! Every Conv2d pass runs serially on its thread: the forward tile and
//! both backward kernels are direct loops, not GEMMs, so no product of
//! theirs reaches the rayon branch of [`tinynn::gemm`] (before the direct
//! backward, the paper CNN's conv2 input-gradient GEMM, 288 × 64 × 64,
//! crossed `PAR_GEMM_THRESHOLD` and ran on the pool).

use rand::{Rng, RngExt};
use std::time::Instant;
use tinynn::zoo::{femnist_cnn, mlp, CnnConfig};
use tinynn::{loss, rng::seeded, Cache, Sequential, Sgd, Tensor};

const IMG: usize = 16;
const CLASSES: usize = 10;
/// The MLP's input width and classes.
const MLP_IN: usize = 8;
const MLP_CLASSES: usize = 4;
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

/// A blob-like MLP batch: features in [−1, 1).
fn mlp_batch(rows: usize, rng: &mut impl Rng) -> (Tensor, Vec<u32>) {
    let x = Tensor::from_fn(&[rows, MLP_IN], |_| rng.random_range(-1.0f32..1.0));
    let y = (0..rows)
        .map(|_| rng.random_range(0..MLP_CLASSES as u32))
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

/// The buffers of every pass, kept across calls: per layer the training
/// output (an in-place layer's stays in its input's buffer, `at`) and
/// cache, two ping-pong activations, two ping-pong gradients and the flat
/// parameter gradient.
#[derive(Default)]
struct Buffers {
    outs: Vec<Tensor>,
    at: Vec<usize>,
    caches: Vec<Cache>,
    acts: [Tensor; 2],
    grads: [Tensor; 2],
    grad_p: Vec<f32>,
}

/// Each layer's `[inference, training forward, backward]` over every call
/// of the timed passes, and the number of those calls.
fn layer_split(
    models: &mut [Sequential],
    batches: &[(Tensor, Vec<u32>)],
) -> (Vec<[Cell; 3]>, usize) {
    let arch = models[0].clone();
    let layers = arch.layers();
    let n = layers.len();
    let mut cells = vec![[Cell::default(); 3]; n];
    let mut calls = 0;
    let mut offsets = vec![0];
    for layer in layers {
        offsets.push(offsets.last().unwrap() + layer.param_count());
    }
    let mut ws = Buffers {
        outs: vec![Tensor::default(); n],
        at: vec![0; n],
        caches: vec![Cache::default(); n],
        ..Buffers::default()
    };
    let mut sgd = Sgd::new(0.05);
    for pass in 0..PASSES {
        if pass == 1 {
            cells = vec![[Cell::default(); 3]; n];
            calls = 0;
        }
        for model in models.iter_mut() {
            for (x, y) in batches {
                calls += 1;
                let params = model.params().to_vec();
                let p = |i: usize| &params[offsets[i]..offsets[i + 1]];
                let Buffers {
                    outs,
                    at,
                    caches,
                    acts,
                    grads,
                    grad_p,
                } = &mut ws;
                // Inference: two ping-pong buffers; in place where allowed.
                let mut cur: Option<usize> = None;
                for (i, layer) in layers.iter().enumerate() {
                    let cache = &mut caches[i];
                    cur = Some(timed(&mut cells[i][0], || {
                        let [a, b] = &mut *acts;
                        match (cur, layer.in_place()) {
                            (None, false) => {
                                layer.forward_into(p(i), Some(x), a, cache, false);
                                0
                            }
                            (Some(c), false) => {
                                let (src, dst) = if c == 0 { (a, b) } else { (b, a) };
                                layer.forward_into(p(i), Some(src), dst, cache, false);
                                1 - c
                            }
                            (c, true) => {
                                let c = c.expect("no model here starts in place");
                                let y = if c == 0 { a } else { b };
                                layer.forward_into(p(i), None, y, cache, false);
                                c
                            }
                        }
                    }));
                }
                // Training forward: the tape, keyed by layer index.
                for (i, layer) in layers.iter().enumerate() {
                    let cache = &mut caches[i];
                    at[i] = timed(&mut cells[i][1], || {
                        if layer.in_place() {
                            let j = at[i - 1];
                            layer.forward_into(p(i), None, &mut outs[j], cache, true);
                            j
                        } else {
                            let (done, rest) = outs.split_at_mut(i);
                            let input = if i == 0 { x } else { &done[at[i - 1]] };
                            layer.forward_into(p(i), Some(input), &mut rest[0], cache, true);
                            i
                        }
                    });
                }
                loss::softmax_cross_entropy_into(&outs[at[n - 1]], y, &mut grads[0]);
                // Backward: two ping-pong gradients, one flat parameter gradient.
                grad_p.clear();
                grad_p.resize(model.param_count(), 0.0);
                let mut c = 0;
                for (i, layer) in layers.iter().enumerate().rev() {
                    let input = if i == 0 { x } else { &outs[at[i - 1]] };
                    let output = &outs[at[i]];
                    let gp = &mut grad_p[offsets[i]..offsets[i + 1]];
                    let cache = &mut caches[i];
                    let [g0, g1] = &mut *grads;
                    let (dy, dx) = if c == 0 { (g0, g1) } else { (g1, g0) };
                    timed(&mut cells[i][2], || {
                        if layer.in_place() {
                            layer.backward_into(p(i), input, output, cache, dy, None, gp);
                        } else {
                            let dx = (i > 0).then_some(dx);
                            layer.backward_into(p(i), input, output, cache, dy, dx, gp);
                        }
                    });
                    if !layer.in_place() {
                        c = 1 - c;
                    }
                }
                sgd.step(model, grad_p);
            }
        }
    }
    (cells, calls)
}

/// The whole calls `[evaluate, training step]` over every call of the
/// timed passes, on the same batches in the same order as [`layer_split`].
fn whole_calls(models: &mut [Sequential], batches: &[(Tensor, Vec<u32>)]) -> [Cell; 2] {
    let mut whole = [Cell::default(); 2];
    let mut sgd = Sgd::new(0.05);
    for pass in 0..PASSES {
        if pass == 1 {
            whole = [Cell::default(); 2];
        }
        for model in models.iter_mut() {
            for (x, y) in batches {
                timed(&mut whole[0], || model.evaluate(x, y));
                timed(&mut whole[1], || sgd.train_step(model, x, y));
            }
        }
    }
    whole
}

/// Time every layer and the whole calls of `models` over `batches`, and
/// print them as one table titled `title`.
fn report(title: &str, mut models: Vec<Sequential>, batches: &[(Tensor, Vec<u32>)]) {
    let mut fresh = models.clone();
    let (cells, calls) = layer_split(&mut models, batches);
    let whole = std::thread::scope(|s| {
        s.spawn(|| whole_calls(&mut fresh, batches))
            .join()
            .expect("whole calls")
    });
    println!("\n{title}: µs per call (minor faults per call)\n");
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
    let [eval, step] = whole.map(cell);
    println!("| whole call: `evaluate` | {eval} | | |");
    println!("| whole call: `loss_and_grads` + SGD step | | {step} | |");
}

#[test]
#[ignore = "a timing report: run in release with --ignored --nocapture"]
fn zoo_layer_split() {
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
            let models = SEEDS
                .iter()
                .map(|&s| femnist_cnn(IMG, CLASSES, cfg, &mut seeded(s)))
                .collect();
            let mut rng = seeded(rows as u64);
            let batches: Vec<_> = (0..BATCHES).map(|_| batch(rows, &mut rng)).collect();
            report(&format!("{name} CNN, {rows} rows"), models, &batches);
        }
    }
    for rows in [4usize, 8] {
        let models = SEEDS
            .iter()
            .map(|&s| mlp(MLP_IN, &[16], MLP_CLASSES, &mut seeded(s)))
            .collect();
        let mut rng = seeded(rows as u64);
        let batches: Vec<_> = (0..BATCHES).map(|_| mlp_batch(rows, &mut rng)).collect();
        report(&format!("MLP, {rows} rows"), models, &batches);
    }
}
