//! Harness-timed probes of single public functions on a workload's live
//! state. Each probe runs inside a `probe` span so its time is
//! attributed to the harness, not to the layer that was running; every
//! sample is the mean of a few back-to-back calls and a metric reports
//! the median of its samples.

use crate::stats::median;
use crate::trace::Tracer;
use feddata::ClientData;
use learning_tangle::node::ModelParams;
use learning_tangle::persist;
use lt_net::{decode_frame, encode_frame, MockTransport, NodeProtocol, WireMsg};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tangle_gossip::{Peer, ProtocolMsg, ReceiveOutcome, TxMessage};
use tangle_ledger::walk::RandomWalk;
use tangle_ledger::{AnalysisCache, RefreshOutcome, Tangle, TangleAnalysis, TangleView};
use tinynn::rng::seeded;
use tinynn::{ParamVec, Sequential, Tensor};

/// Per-layer values of one epoch, by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// What the model-side probes need besides the ledger.
pub struct ModelCtx<'a> {
    /// One client's data (the first of the generated dataset).
    pub client: &'a ClientData,
    /// The workload's architecture.
    pub build: &'a dyn Fn() -> Sequential,
    /// Learning rate and batch size of the workload.
    pub lr: f32,
    /// Mini-batch size of the workload.
    pub batch: usize,
}

/// Samples collected over one epoch's checkpoints.
pub struct Probes {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// A second analysis cache the harness refreshes at each checkpoint,
    /// so the refresh it times is the catch-up the program's own cache
    /// just paid for the same appends.
    shadow: AnalysisCache,
}

impl Probes {
    /// Probes over a ledger that currently looks like `tangle`.
    pub fn new(tangle: &Tangle<ModelParams>) -> Self {
        Self {
            samples: BTreeMap::new(),
            shadow: AnalysisCache::new(tangle),
        }
    }

    /// Time `reps` calls of `f` as one span; the sample is the mean in
    /// `unit_per_s` units (1e6 = microseconds, 1e3 = milliseconds).
    fn time<R>(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        unit_per_s: f64,
        reps: usize,
        mut f: impl FnMut() -> R,
    ) {
        let secs = tr.scope(name, 0, |_| {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t.elapsed().as_secs_f64()
        });
        self.record(name, secs * unit_per_s / reps as f64);
    }

    fn record(&mut self, name: &'static str, sample: f64) {
        self.samples.entry(name).or_default().push(sample);
    }

    /// The probes that run at every checkpoint, on the ledger as it is
    /// now.
    pub fn checkpoint(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        tangle: &Tangle<ModelParams>,
        model: &ModelCtx<'_>,
    ) {
        tr.scope("bench.probe", id, |tr| {
            let t = Instant::now();
            let outcome = tr.scope("tangle.analysis.refresh_us_per_append", id, |_| {
                self.shadow.refresh(tangle)
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            match outcome {
                RefreshOutcome::Extended(n) if n > 0 => {
                    self.record("tangle.analysis.refresh_us_per_append", us / n as f64)
                }
                // A restarted peer swapped its replica: the shadow was
                // rebuilt, which is not the cost this probe reports.
                _ => {}
            }

            let walk = RandomWalk::new(0.05);
            let mut rng = seeded(id ^ 0x3A1C);
            let weights = self.shadow.weights().to_vec();
            self.time(tr, "tangle.walk.select_us", 1e6, 32, || {
                walk.select_tip_with_weights(tangle, &weights, &mut rng)
            });

            let a = Tensor::from_fn(&[128, 128], |i| ((i * 37 % 101) as f32) / 101.0);
            let b = Tensor::from_fn(&[128, 128], |i| ((i * 53 % 89) as f32) / 89.0);
            self.time(tr, "tinynn.gemm.matmul128_us", 1e6, 4, || a.matmul(&b));

            let mut net = (model.build)();
            let mut rng = seeded(id ^ 0x7EA1);
            self.time(tr, "tinynn.model.train_epoch_us", 1e6, 1, || {
                fedavg::local_train(&mut net, model.client, 1, model.lr, model.batch, &mut rng)
            });
            self.time(tr, "tinynn.model.eval_us", 1e6, 4, || {
                net.evaluate(&model.client.test_x, &model.client.test_y)
            });

            let txs = tangle.transactions();
            let recent: Vec<&ParamVec> = txs[txs.len().saturating_sub(10)..]
                .iter()
                .map(|tx| tx.payload.as_ref())
                .collect();
            self.time(tr, "tinynn.params.average_us", 1e6, 4, || {
                ParamVec::average(&recent)
            });
            let last = recent[recent.len() - 1];
            self.time(tr, "tinynn.wire.encode_us", 1e6, 8, || {
                tinynn::wire::encode(last)
            });
            let enc = tinynn::wire::encode(last);
            self.time(tr, "tinynn.wire.decode_us", 1e6, 8, || {
                tinynn::wire::decode(&enc).expect("own encoding decodes")
            });
            self.record("tinynn.wire.payload_bytes", enc.len() as f64);
        });
    }

    /// The probes that run once, on the final ledger of an epoch.
    /// Returns the persisted image so the caller can digest it.
    pub fn final_ledger(&mut self, tr: &mut Tracer, tangle: &Tangle<ModelParams>) {
        tr.scope("bench.probe", u64::MAX, |tr| {
            self.time(tr, "tangle.analysis.full_ms", 1e3, 3, || {
                TangleAnalysis::compute(tangle)
            });
            let view = TangleView::new(tangle, (tangle.len() * 9 / 10).max(1));
            self.time(tr, "tangle.view.analysis_ms", 1e3, 3, || {
                TangleAnalysis::compute(&view)
            });
            self.time(tr, "core.persist.to_bytes_ms", 1e3, 3, || {
                persist::to_bytes(tangle)
            });
            let image = persist::to_bytes(tangle);
            self.time(tr, "core.persist.from_bytes_ms", 1e3, 3, || {
                persist::from_bytes(&image).expect("own image loads").len()
            });
            self.record("core.persist.bytes", image.len() as f64);
        });
    }

    /// The probes that need a message archive (gossip and net
    /// workloads): `archive` is one replica's messages in insertion
    /// order, genesis excluded.
    pub fn archive(&mut self, tr: &mut Tracer, genesis: &TxMessage, archive: &[TxMessage]) {
        let Some(last) = archive.last() else {
            return;
        };
        tr.scope("bench.probe", u64::MAX, |tr| {
            let n = archive.len();
            let params = last.decode_params().expect("archived payload decodes");
            self.time(tr, "gossip.message.create_us", 1e6, 8, || {
                TxMessage::create(&params, last.parents.clone(), last.issuer, last.slot, 0)
            });
            let enc = last.encode();
            self.time(tr, "gossip.message.decode_us", 1e6, 8, || {
                TxMessage::decode(&enc).expect("own encoding decodes")
            });
            self.record("gossip.message.bytes", enc.len() as f64);

            let mut peer = Peer::new(0, genesis, 0);
            self.time(tr, "gossip.peer.receive_us", 1e6 / n as f64, 1, || {
                for m in archive {
                    assert_eq!(peer.receive(m), ReceiveOutcome::Accepted);
                }
            });
            self.time(tr, "gossip.peer.receive_dup_us", 1e6 / n as f64, 1, || {
                for m in archive {
                    assert_eq!(peer.receive(m), ReceiveOutcome::Duplicate);
                }
            });
            self.peer_image(tr, &peer);

            let frame_msg = WireMsg::Publish(last.clone());
            self.time(tr, "net.frame.encode_us", 1e6, 8, || {
                encode_frame(&frame_msg)
            });
            let frame = encode_frame(&frame_msg);
            self.time(tr, "net.frame.decode_us", 1e6, 8, || {
                decode_frame(&frame).expect("own frame decodes").1
            });
            self.record("net.frame.bytes", frame.len() as f64);

            // Two protocol engines joined by the mock transport: node 0
            // publishes the archive, node 1 receives every message.
            let mut nodes: Vec<NodeProtocol> = (0..2)
                .map(|i| {
                    let mut p = NodeProtocol::new(i, genesis, 0, lt_net::ORPHAN_CAP);
                    p.set_neighbours(vec![1 - i]);
                    p
                })
                .collect();
            let mut wire = MockTransport::new(1, (1, 1));
            self.time(tr, "net.protocol.on_message_us", 1e6 / n as f64, 1, || {
                for m in archive {
                    nodes[0].publish(m.clone(), &mut wire);
                    while let Some(d) = wire.pop_next() {
                        let msg: ProtocolMsg = d.msg;
                        nodes[d.to].on_message(d.from, msg, &mut wire);
                    }
                }
            });
            assert_eq!(
                nodes[1].peer().len(),
                n + 1,
                "mock replay must deliver the archive"
            );
        });
    }

    /// Checkpoint `peer` and restore it again: what one crash-recovery
    /// snapshot of a replica this size costs.
    pub fn peer_image(&mut self, tr: &mut Tracer, peer: &Peer) {
        self.time(tr, "gossip.peer.checkpoint_ms", 1e3, 3, || {
            peer.checkpoint_bytes()
        });
        let image = peer.checkpoint_bytes();
        self.time(tr, "gossip.peer.restore_ms", 1e3, 3, || {
            Peer::from_checkpoint(0, &image, 0, tangle_gossip::peer::DEFAULT_ORPHAN_CAP)
                .expect("own checkpoint restores")
                .len()
        });
    }

    /// Median of each probe's samples, written into `layer`.
    pub fn finish(self, layer: &mut Layer) {
        for (name, samples) in self.samples {
            layer.insert(name, median(&samples));
        }
    }
}
