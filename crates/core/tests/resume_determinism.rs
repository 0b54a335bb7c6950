//! The checkpoint/resume contract: training `2N` epochs uninterrupted
//! and training `N` epochs → checkpoint → reload → `N` more epochs must
//! produce **bit-identical** losses and embeddings, at every pipeline
//! depth. Anything less means a "resumed" run silently diverges from the
//! run it claims to continue.

use ehna_core::{load_checkpoint_full, EhnaConfig, Trainer};
use ehna_tgraph::{GraphBuilder, TemporalGraph};

/// Two temporal communities plus an isolated node, so the inference
/// fallback path (which draws from the trainer's main RNG) is exercised
/// too — resume must restore that stream as well.
fn graph() -> TemporalGraph {
    let mut b = GraphBuilder::with_num_nodes(11);
    let mut t = 0i64;
    for round in 0..4 {
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                if (i + j + round) % 3 == 0 {
                    t += 1;
                    b.add_edge(i, j, t, 1.0).unwrap();
                    b.add_edge(i + 5, j + 5, t, 1.0).unwrap();
                }
            }
        }
    }
    b.build().unwrap()
}

fn cfg(epochs: usize, pipeline_depth: usize) -> EhnaConfig {
    EhnaConfig {
        dim: 8,
        num_walks: 3,
        walk_length: 3,
        batch_size: 16,
        epochs,
        negatives: 3,
        lr: 5e-3,
        pipeline_depth,
        ..EhnaConfig::tiny()
    }
}

fn bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// The headline gate, parameterized over pipeline depth.
fn resume_is_bit_identical_at_depth(depth: usize) {
    let g = graph();
    let n = 2usize;

    // Uninterrupted reference: 2N epochs in one trainer.
    let mut uninterrupted = Trainer::new(&g, cfg(2 * n, depth)).unwrap();
    let ref_report = uninterrupted.train();
    let ref_emb = uninterrupted.into_embeddings();

    // Interrupted run: N epochs, checkpoint, drop everything, reload,
    // N more epochs.
    let mut first_leg = Trainer::new(&g, cfg(n, depth)).unwrap();
    let first_report = first_leg.train();
    let mut buf = Vec::new();
    first_leg.save_checkpoint(&mut buf).unwrap();
    drop(first_leg);

    let ckpt = load_checkpoint_full(&buf[..], &g, cfg(n, depth)).unwrap();
    assert!(ckpt.resume_warning().is_none(), "v2 trainer checkpoint must be resumable");
    let mut second_leg = Trainer::from_checkpoint(&g, ckpt).unwrap();
    assert_eq!(second_leg.epochs_trained(), n as u64, "epoch counter not restored");
    let second_report = second_leg.train();
    let resumed_emb = second_leg.into_embeddings();

    let mut resumed_losses = first_report.epoch_losses.clone();
    resumed_losses.extend_from_slice(&second_report.epoch_losses);
    assert_eq!(
        bits(&ref_report.epoch_losses),
        bits(&resumed_losses),
        "losses diverged after resume at pipeline depth {depth}"
    );
    assert_eq!(ref_emb, resumed_emb, "embeddings diverged after resume at depth {depth}");
}

#[test]
fn resume_is_bit_identical_synchronous() {
    resume_is_bit_identical_at_depth(0);
}

#[test]
fn resume_is_bit_identical_pipelined() {
    resume_is_bit_identical_at_depth(3);
}

#[test]
fn double_resume_is_bit_identical() {
    // Chaining checkpoints (1 + 1 + 2 epochs) must also match 4 straight
    // epochs: resume state must survive being saved *again*.
    let g = graph();
    let mut reference = Trainer::new(&g, cfg(4, 2)).unwrap();
    let ref_report = reference.train();
    let ref_emb = reference.into_embeddings();

    let mut losses = Vec::new();
    let mut buf = Vec::new();
    let mut t = Trainer::new(&g, cfg(1, 2)).unwrap();
    losses.extend(t.train().epoch_losses);
    t.save_checkpoint(&mut buf).unwrap();
    for leg_epochs in [1usize, 2] {
        let ckpt = load_checkpoint_full(&buf[..], &g, cfg(leg_epochs, 2)).unwrap();
        let mut leg = Trainer::from_checkpoint(&g, ckpt).unwrap();
        losses.extend(leg.train().epoch_losses);
        buf.clear();
        leg.save_checkpoint(&mut buf).unwrap();
        t = leg;
    }
    assert_eq!(bits(&ref_report.epoch_losses), bits(&losses), "chained resumes diverged");
    assert_eq!(ref_emb, t.into_embeddings());
}

#[test]
fn model_only_resume_continues_epoch_streams() {
    // A model-only resume cannot be bit-faithful, but its walk-seed
    // streams must continue from the recorded epoch count rather than
    // replaying epoch 1's. Observable contract: the trainer resumes with
    // the saved epoch count, and its next epoch differs from what the
    // same model would compute if the counter had been reset to zero
    // (the pre-fix behavior, which correlated resumed walks with epoch
    // 1's streams).
    let g = graph();
    let mut t = Trainer::new(&g, cfg(3, 0)).unwrap();
    t.train();
    let mut buf = Vec::new();
    t.model().save_checkpoint(&mut buf).unwrap();

    let model = ehna_core::EhnaModel::load_checkpoint(&buf[..], &g, cfg(1, 0)).unwrap();
    assert_eq!(model.epochs_trained, 3, "epoch count not persisted in model section");
    let mut resumed = Trainer::from_model(&g, model).unwrap();
    assert_eq!(resumed.epochs_trained(), 3);
    let continued_loss = resumed.train().epoch_losses[0];

    // Same parameters, but epoch counter forced back to 0 by round-
    // tripping through a model whose count we reset: replays epoch-1
    // streams and computes a different batch sequence.
    let mut model_reset = ehna_core::EhnaModel::load_checkpoint(&buf[..], &g, cfg(1, 0)).unwrap();
    model_reset.epochs_trained = 0;
    let mut replayed = Trainer::from_model(&g, model_reset).unwrap();
    let replayed_loss = replayed.train().epoch_losses[0];
    assert_ne!(
        continued_loss.to_bits(),
        replayed_loss.to_bits(),
        "resumed epoch reused epoch-1 walk-seed streams"
    );
}

#[test]
fn periodic_hook_checkpoints_match_final_state() {
    // The hook fires every epoch; the last hook-written checkpoint must
    // equal the trainer's own final save (the hook sees fully-updated
    // state, not a mid-epoch snapshot).
    use std::cell::RefCell;
    use std::rc::Rc;

    let g = graph();
    let mut config = cfg(3, 2);
    config.checkpoint_every = 1;
    let mut t = Trainer::new(&g, config).unwrap();
    type Saves = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;
    let saves: Saves = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&saves);
    t.set_checkpoint_hook(Box::new(move |epoch, trainer| {
        let mut buf = Vec::new();
        trainer.save_checkpoint(&mut buf)?;
        sink.borrow_mut().push((epoch, buf));
        Ok(())
    }));
    let report = t.train();
    assert!(report.checkpoint_error.is_none());
    let saves = saves.borrow();
    assert_eq!(saves.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![1, 2, 3]);
    let mut final_buf = Vec::new();
    t.save_checkpoint(&mut final_buf).unwrap();
    assert_eq!(saves.last().unwrap().1, final_buf, "hook checkpoint differs from final state");
}

#[test]
fn failing_hook_reports_without_aborting_training() {
    let g = graph();
    let mut config = cfg(2, 0);
    config.checkpoint_every = 1;
    let mut t = Trainer::new(&g, config).unwrap();
    t.set_checkpoint_hook(Box::new(|_, _| Err(std::io::Error::other("disk full"))));
    let report = t.train();
    assert_eq!(report.epoch_losses.len(), 2, "training aborted by failed checkpoint");
    let err = report.checkpoint_error.expect("failure not reported");
    assert!(err.contains("disk full"), "unhelpful error: {err}");
}
