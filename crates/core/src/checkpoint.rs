//! Model + trainer checkpointing: persist a trained [`EhnaModel`]
//! (parameters, batch-norm running statistics, architecture-defining
//! config fields) and, optionally, the full trainer state needed for a
//! *bit-faithful* resume: Adam moments and the main RNG position.
//!
//! # EHNC format (v3)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic "EHNC" | version=3 | arch fields | aggregator u32 | heads u32
//!   | 2 x BN stats | epochs_trained u64
//!   | ParamStore | has_state u32
//!   | [rng state 4 x u64 | Adam blob]   (iff has_state == 1)
//!   | checksum u64                       (FNV-1a 64 of all prior bytes)
//! ```
//!
//! Loads accept only this layout (earlier versions fail as unsupported),
//! reject trailing garbage, verify the checksum, and cap every length
//! field before allocating, so truncation or byte corruption at any
//! position yields `InvalidData` — never a panic or a silently-wrong
//! model. A file saved without trainer state loads, but the resulting
//! resume is optimizer-cold; [`LoadedCheckpoint::resume_warning`]
//! describes the caveat for surfacing through the CLI.

use crate::config::{AggregatorKind, EhnaConfig, WalkStyle};
use crate::model::EhnaModel;
use ehna_nn::optim::Adam;
use ehna_nn::ParamStore;
use ehna_tgraph::ioutil::{self, checked_u32, read_u32, read_u64, ChecksumReader, ChecksumWriter};
use ehna_tgraph::TemporalGraph;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic: the `u32` 0x45484E43 ("EHNC" read big-endian), written
/// little-endian, so the file opens with the bytes `CNHE`.
const MAGIC: u32 = 0x45484E43;
const VERSION: u32 = 3;

fn aggregator_code(kind: AggregatorKind) -> u32 {
    match kind {
        AggregatorKind::Lstm => 0,
        AggregatorKind::Attn => 1,
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn write_f32s<W: Write>(w: &mut W, xs: &[f32]) -> io::Result<()> {
    w.write_all(&checked_u32(xs.len(), "stat block length")?.to_le_bytes())?;
    ioutil::write_f32_block(w, xs)
}

fn read_f32s<R: Read>(r: &mut R) -> io::Result<Vec<f32>> {
    let n = read_u32(r)? as usize;
    if n > (1 << 24) {
        return Err(bad("implausible stat block"));
    }
    ioutil::read_f32_block(r, n)
}

/// Consume `r` to its end and error unless it was already exhausted:
/// a checkpoint followed by trailing bytes is a concatenated or corrupt
/// file, not a checkpoint.
fn expect_eof<R: Read>(r: &mut R) -> io::Result<()> {
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok(()),
        _ => Err(bad("trailing garbage after checkpoint payload")),
    }
}

/// The resumable (non-model) trainer state a checkpoint may carry.
#[derive(Debug, Clone)]
pub struct TrainerState {
    /// Exact xoshiro256++ state of the trainer's main RNG (negative
    /// sampling, fallback aggregation).
    pub rng_state: [u64; 4],
    /// The optimizer, with step count and both moment buffers.
    pub optimizer: Adam,
}

/// Everything a checkpoint file yielded.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The restored model (parameters, BN statistics, `epochs_trained`).
    pub model: EhnaModel,
    /// Trainer state for bit-faithful resume; `None` for model-only
    /// saves.
    pub state: Option<TrainerState>,
}

impl LoadedCheckpoint {
    /// A human-readable caveat when resuming from this checkpoint will
    /// not be bit-faithful, for surfacing through the CLI. `None` when
    /// full trainer state was present.
    pub fn resume_warning(&self) -> Option<String> {
        if self.state.is_some() {
            return None;
        }
        Some(
            "checkpoint carries no optimizer state: resuming restarts Adam cold and \
             redraws RNG streams, so the continued run will not be bit-faithful to \
             an uninterrupted one"
                .to_string(),
        )
    }
}

/// Serialize a checkpoint. `state` carries the trainer's RNG position
/// and optimizer for a bit-faithful resume; `None` writes a model-only
/// file (resume is optimizer-cold).
pub(crate) fn write_checkpoint<W: Write>(
    w: W,
    model: &EhnaModel,
    state: Option<(&Adam, [u64; 4])>,
) -> io::Result<()> {
    let mut w = ChecksumWriter::new(w);
    w.write_all(&ioutil::header(MAGIC.to_le_bytes(), VERSION))?;
    // Architecture-defining fields (must match at load).
    let config = &model.config;
    let arch = [
        checked_u32(model.num_nodes(), "node count")?,
        checked_u32(config.dim, "dim")?,
        checked_u32(config.lstm_layers, "lstm_layers")?,
        u32::from(config.two_level),
        u32::from(config.attention),
        match config.walk_style {
            WalkStyle::Temporal => 0,
            WalkStyle::Static => 1,
        },
        aggregator_code(config.aggregator),
        checked_u32(config.heads, "heads")?,
    ];
    for field in arch {
        w.write_all(&field.to_le_bytes())?;
    }
    // Batch-norm running statistics.
    for bn in [&model.bn_node, &model.bn_walk] {
        let (mean, var, init) = bn.running_stats();
        w.write_all(&u32::from(init).to_le_bytes())?;
        write_f32s(&mut w, mean)?;
        write_f32s(&mut w, var)?;
    }
    w.write_all(&model.epochs_trained.to_le_bytes())?;
    // Parameters.
    model.store.save(&mut w)?;
    // Trainer state.
    match state {
        None => w.write_all(&0u32.to_le_bytes())?,
        Some((optimizer, rng_state)) => {
            w.write_all(&1u32.to_le_bytes())?;
            for word in rng_state {
                w.write_all(&word.to_le_bytes())?;
            }
            optimizer.save(&mut w)?;
        }
    }
    let digest = w.digest();
    let mut w = w.into_inner();
    w.write_all(&digest.to_le_bytes())?;
    w.flush()
}

/// Restore a checkpoint with whatever trainer state it carries. See
/// [`EhnaModel::load_checkpoint`] for the validation contract; this
/// variant additionally rejects payloads whose trailing checksum does
/// not match.
///
/// # Errors
/// `InvalidData` on format, checksum, or architecture mismatches.
pub fn load_checkpoint_full<R: Read>(
    r: R,
    graph: &TemporalGraph,
    config: EhnaConfig,
) -> io::Result<LoadedCheckpoint> {
    let mut r = ChecksumReader::new(r);
    ioutil::read_header(&mut r, MAGIC.to_le_bytes(), VERSION..=VERSION)?;
    let nodes = read_u32(&mut r)? as usize;
    if nodes != graph.num_nodes() {
        return Err(bad(&format!(
            "node count mismatch: checkpoint {nodes}, graph {}",
            graph.num_nodes()
        )));
    }
    let dim = read_u32(&mut r)? as usize;
    let layers = read_u32(&mut r)? as usize;
    let two_level = read_u32(&mut r)? != 0;
    let attention = read_u32(&mut r)? != 0;
    let walk_style = match read_u32(&mut r)? {
        0 => WalkStyle::Temporal,
        1 => WalkStyle::Static,
        _ => return Err(bad("unknown walk style")),
    };
    let aggregator = match read_u32(&mut r)? {
        0 => AggregatorKind::Lstm,
        1 => AggregatorKind::Attn,
        _ => return Err(bad("unknown aggregator kind")),
    };
    let heads = read_u32(&mut r)? as usize;
    if aggregator != config.aggregator {
        return Err(bad(&format!(
            "aggregator mismatch: checkpoint holds '{}' parameters but the \
             supplied config selects '{}'",
            aggregator.name(),
            config.aggregator.name()
        )));
    }
    if aggregator == AggregatorKind::Attn && heads != config.heads {
        return Err(bad(&format!(
            "attention head count mismatch: checkpoint {heads}, config {}",
            config.heads
        )));
    }
    if dim != config.dim
        || layers != config.lstm_layers
        || two_level != config.two_level
        || attention != config.attention
        || walk_style != config.walk_style
    {
        return Err(bad("architecture fields differ from the supplied config"));
    }
    let mut model = EhnaModel::new(graph, config).map_err(|e| bad(&e))?;
    for bn in [&mut model.bn_node, &mut model.bn_walk] {
        let init = read_u32(&mut r)? != 0;
        let mean = read_f32s(&mut r)?;
        let var = read_f32s(&mut r)?;
        if mean.len() != bn.dim || var.len() != bn.dim {
            return Err(bad("batch-norm width mismatch"));
        }
        bn.set_running_stats(&mean, &var, init);
    }
    model.epochs_trained = read_u64(&mut r)?;
    let loaded = ParamStore::load(&mut r)?;
    model.store.load_values_from(&loaded).map_err(|e| bad(&e))?;
    let state = match read_u32(&mut r)? {
        0 => None,
        1 => {
            let mut rng_state = [0u64; 4];
            for word in &mut rng_state {
                *word = read_u64(&mut r)?;
            }
            if rng_state == [0u64; 4] {
                // Absorbing xoshiro256++ state: cannot come from a
                // seeded generator, only from corruption.
                return Err(bad("degenerate RNG state"));
            }
            let optimizer = Adam::load(&mut r)?;
            Some(TrainerState { rng_state, optimizer })
        }
        _ => return Err(bad("bad trainer-state flag")),
    };
    let computed = r.digest();
    let mut inner = r.into_inner();
    let stored = read_u64(&mut inner)?;
    if stored != computed {
        return Err(bad("checksum mismatch: checkpoint is corrupt"));
    }
    expect_eof(&mut inner)?;
    Ok(LoadedCheckpoint { model, state })
}

/// Load a checkpoint from `path`, falling back to the `.bak` sibling
/// [`ehna_tgraph::ioutil::atomic_write_path`] rotates (a crash between its
/// two renames can leave only the backup in place). Returns the
/// checkpoint and whether the backup was used (callers should surface
/// that to the operator).
///
/// # Errors
/// The *primary* path's error when neither file loads.
pub fn load_checkpoint_path(
    path: &Path,
    graph: &TemporalGraph,
    config: EhnaConfig,
) -> io::Result<(LoadedCheckpoint, bool)> {
    let try_load = |p: &Path, config: EhnaConfig| -> io::Result<LoadedCheckpoint> {
        let f = std::fs::File::open(p)?;
        load_checkpoint_full(io::BufReader::new(f), graph, config)
    };
    match try_load(path, config.clone()) {
        Ok(ckpt) => Ok((ckpt, false)),
        Err(primary) => match try_load(&ioutil::backup_path(path), config) {
            Ok(ckpt) => Ok((ckpt, true)),
            Err(_) => Err(primary),
        },
    }
}

impl EhnaModel {
    /// Serialize the trained model to `w` (EHNC v3, without trainer
    /// state — use [`Trainer::save_checkpoint`](crate::Trainer::save_checkpoint)
    /// to capture optimizer and RNG state for a bit-faithful resume).
    ///
    /// # Errors
    /// IO failures, or counts that overflow the format's fields.
    pub fn save_checkpoint<W: Write>(&self, w: W) -> io::Result<()> {
        write_checkpoint(w, self, None)
    }

    /// Restore a checkpoint saved by [`EhnaModel::save_checkpoint`] or
    /// [`Trainer::save_checkpoint`](crate::Trainer::save_checkpoint),
    /// discarding any trainer state (use [`load_checkpoint_full`] to
    /// keep it).
    ///
    /// `graph` must be the network the model was (or will be) used with —
    /// its node count must match the checkpoint; `config` supplies the
    /// non-architectural hyperparameters (lr, margin, walks, …) and its
    /// architectural fields are validated against the stored ones.
    ///
    /// # Errors
    /// `InvalidData` on format or architecture mismatches.
    pub fn load_checkpoint<R: Read>(
        r: R,
        graph: &TemporalGraph,
        config: EhnaConfig,
    ) -> io::Result<EhnaModel> {
        load_checkpoint_full(r, graph, config).map(|c| c.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use ehna_tgraph::GraphBuilder;

    fn toy() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for i in 0..10u32 {
            b.add_edge(i, (i + 1) % 11, i as i64, 1.0).unwrap();
            b.add_edge(i, (i + 4) % 11, i as i64 + 1, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    fn cfg() -> EhnaConfig {
        EhnaConfig {
            dim: 8,
            num_walks: 3,
            walk_length: 3,
            batch_size: 8,
            epochs: 2,
            ..EhnaConfig::tiny()
        }
    }

    #[test]
    fn checkpoint_preserves_inference_output() {
        let g = toy();
        let mut trainer = Trainer::new(&g, cfg()).unwrap();
        trainer.train();
        let emb_before = trainer.embeddings();

        let mut buf = Vec::new();
        trainer.model().save_checkpoint(&mut buf).unwrap();

        let model = EhnaModel::load_checkpoint(&buf[..], &g, cfg()).unwrap();
        let mut restored = Trainer::from_model(&g, model).unwrap();
        let emb_after = restored.embeddings();
        assert_eq!(emb_before, emb_after, "restored model diverges");
    }

    #[test]
    fn trainer_checkpoint_carries_state() {
        let g = toy();
        let mut trainer = Trainer::new(&g, cfg()).unwrap();
        trainer.train();
        let mut buf = Vec::new();
        trainer.save_checkpoint(&mut buf).unwrap();

        let ckpt = load_checkpoint_full(&buf[..], &g, cfg()).unwrap();
        assert_eq!(ckpt.model.epochs_trained, 2);
        let state = ckpt.state.as_ref().expect("trainer checkpoint must carry state");
        assert!(state.optimizer.steps() > 0, "optimizer step count lost");
        assert!(ckpt.resume_warning().is_none());
    }

    #[test]
    fn model_only_checkpoint_warns_on_resume() {
        let g = toy();
        let trainer = Trainer::new(&g, cfg()).unwrap();
        let mut buf = Vec::new();
        trainer.model().save_checkpoint(&mut buf).unwrap();
        let ckpt = load_checkpoint_full(&buf[..], &g, cfg()).unwrap();
        assert!(ckpt.state.is_none());
        let warning = ckpt.resume_warning().expect("model-only checkpoint must warn");
        assert!(warning.contains("optimizer state"), "vague warning: {warning}");
    }

    #[test]
    fn pre_v3_headers_are_unsupported() {
        let g = toy();
        let trainer = Trainer::new(&g, cfg()).unwrap();
        let mut buf = Vec::new();
        trainer.model().save_checkpoint(&mut buf).unwrap();
        for version in [1u32, 2] {
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            let err = load_checkpoint_full(&buf[..], &g, cfg()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "v{version}: {err}");
            assert!(err.to_string().contains("version"), "v{version}: {err}");
        }
    }

    #[test]
    fn mismatched_architecture_rejected() {
        let g = toy();
        let trainer = Trainer::new(&g, cfg()).unwrap();
        let mut buf = Vec::new();
        trainer.model().save_checkpoint(&mut buf).unwrap();

        let wrong_dim = EhnaConfig { dim: 16, ..cfg() };
        assert!(EhnaModel::load_checkpoint(&buf[..], &g, wrong_dim).is_err());
        let wrong_variant = EhnaConfig { attention: false, ..cfg() };
        assert!(EhnaModel::load_checkpoint(&buf[..], &g, wrong_variant).is_err());
        // LSTM checkpoint under an attn config: the parameter sets are
        // disjoint, so the mismatch must be a typed, descriptive error.
        let wrong_agg = EhnaConfig { aggregator: AggregatorKind::Attn, ..cfg() };
        let err = EhnaModel::load_checkpoint(&buf[..], &g, wrong_agg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("aggregator"), "wrong error: {err}");
    }

    #[test]
    fn attn_checkpoint_round_trips_and_rejects_mismatches() {
        let g = toy();
        let attn_cfg = EhnaConfig { aggregator: AggregatorKind::Attn, ..cfg() };
        let mut trainer = Trainer::new(&g, attn_cfg.clone()).unwrap();
        trainer.train();
        let emb_before = trainer.embeddings();
        let mut buf = Vec::new();
        trainer.save_checkpoint(&mut buf).unwrap();

        let ckpt = load_checkpoint_full(&buf[..], &g, attn_cfg.clone()).unwrap();
        let mut restored = Trainer::from_model(&g, ckpt.model).unwrap();
        assert_eq!(emb_before, restored.embeddings(), "restored attn model diverges");

        // Attn checkpoint under the default lstm config.
        let err = EhnaModel::load_checkpoint(&buf[..], &g, cfg()).unwrap_err();
        assert!(err.to_string().contains("aggregator"), "wrong error: {err}");
        // Same aggregator, different head count: attention semantics
        // change even though parameter shapes agree.
        let wrong_heads = EhnaConfig { heads: 2, ..attn_cfg };
        let err = EhnaModel::load_checkpoint(&buf[..], &g, wrong_heads).unwrap_err();
        assert!(err.to_string().contains("head count"), "wrong error: {err}");
    }

    #[test]
    fn mismatched_graph_rejected() {
        let g = toy();
        let trainer = Trainer::new(&g, cfg()).unwrap();
        let mut buf = Vec::new();
        trainer.model().save_checkpoint(&mut buf).unwrap();

        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        let tiny = b.build().unwrap();
        assert!(EhnaModel::load_checkpoint(&buf[..], &tiny, cfg()).is_err());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let g = toy();
        assert!(EhnaModel::load_checkpoint(&b"junk"[..], &g, cfg()).is_err());
        let trainer = Trainer::new(&g, cfg()).unwrap();
        let mut buf = Vec::new();
        trainer.model().save_checkpoint(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(EhnaModel::load_checkpoint(&buf[..], &g, cfg()).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let g = toy();
        let trainer = Trainer::new(&g, cfg()).unwrap();
        // Appended bytes (e.g. two concatenated checkpoints).
        let mut buf = Vec::new();
        trainer.model().save_checkpoint(&mut buf).unwrap();
        buf.push(0);
        let err = EhnaModel::load_checkpoint(&buf[..], &g, cfg()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "wrong error: {err}");
    }
}
