//! Extension ablations beyond the paper's Table VII, covering the design
//! choices DESIGN.md calls out:
//!
//! 1. **Decay kernel** — exponential (Eq. 1) vs. linear cutoff vs. uniform
//!    (no decay) transition weighting in the temporal walk.
//! 2. **Objective direction** — unidirectional Eq. 6 vs. bidirectional
//!    Eq. 7 on the bipartite tmall-like network (the case §IV-D motivates).
//! 3. **Embedding dimension** — d ∈ {16, 32, 64, 128} (the paper fixes
//!    d = 128; this sweep shows the quality/cost trade the fixed choice
//!    hides).
//!
//! Each ablation reports link-prediction F1 (Weighted-L2) like Table VII.
//!
//! ```text
//! cargo run --release -p ehna-bench --bin ext_ablations -- --scale tiny
//! ```

use ehna_bench::table::{f4, Table};
use ehna_bench::Args;
use ehna_cli::method::ehna_config;
use ehna_core::{EhnaConfig, EhnaVariant, Trainer};
use ehna_datasets::{generate, Dataset};
use ehna_eval::{EdgeOperator, LinkPredictionConfig, LinkPredictionTask};
use ehna_walks::DecayKernel;

fn f1_for(task: &LinkPredictionTask, config: EhnaConfig) -> f64 {
    let mut trainer = Trainer::new(task.train_graph(), config).expect("valid config");
    trainer.train();
    let emb = trainer.into_embeddings();
    task.evaluate(&emb, EdgeOperator::WeightedL2).f1
}

fn main() {
    let args = Args::from_env();
    let base = ehna_config(EhnaVariant::Full, &args.train_options());

    // ---- 1. kernel ablation on the social network -----------------------
    let digg = generate(Dataset::DiggLike, args.scale, args.seed);
    let task = LinkPredictionTask::prepare(
        &digg,
        LinkPredictionConfig { seed: args.seed, ..Default::default() },
    );
    let span = digg.max_time().delta(digg.min_time());
    let mut t1 = Table::new(["Kernel", "F1 (Weighted-L2)"]);
    for (name, kernel) in [
        ("exponential (paper)", DecayKernel::exponential_for_span(span)),
        ("linear", DecayKernel::Linear { horizon: span / 2.0 }),
        ("uniform (no decay)", DecayKernel::Uniform),
    ] {
        eprintln!("[ext] kernel = {name} ...");
        let cfg = EhnaConfig { kernel: Some(kernel), ..base.clone() };
        t1.row([name.to_string(), f4(f1_for(&task, cfg))]);
    }
    println!("\nAblation 1: decay kernel (digg-like)\n\n{}", t1.render());
    t1.write_tsv(&args.out_file(&format!("ext_kernel_{}.tsv", args.scale))).expect("tsv");

    // ---- 2. objective direction on the bipartite network ----------------
    let tmall = generate(Dataset::TmallLike, args.scale, args.seed);
    let task_t = LinkPredictionTask::prepare(
        &tmall,
        LinkPredictionConfig { seed: args.seed, ..Default::default() },
    );
    let mut t2 = Table::new(["Objective", "F1 (Weighted-L2)"]);
    for (name, bidirectional) in
        [("unidirectional (Eq. 6)", false), ("bidirectional (Eq. 7)", true)]
    {
        eprintln!("[ext] objective = {name} ...");
        let cfg = EhnaConfig { bidirectional, ..base.clone() };
        t2.row([name.to_string(), f4(f1_for(&task_t, cfg))]);
    }
    println!("\nAblation 2: negative-sampling direction (tmall-like)\n\n{}", t2.render());
    t2.write_tsv(&args.out_file(&format!("ext_bidir_{}.tsv", args.scale))).expect("tsv");

    // ---- 3. dimension sweep on the co-author network --------------------
    let dblp = generate(Dataset::DblpLike, args.scale, args.seed);
    let task_d = LinkPredictionTask::prepare(
        &dblp,
        LinkPredictionConfig { seed: args.seed, ..Default::default() },
    );
    let mut t3 = Table::new(["d", "F1 (Weighted-L2)", "train s/epoch"]);
    for d in [16usize, 32, 64, 128] {
        eprintln!("[ext] dim = {d} ...");
        let cfg = EhnaConfig { dim: d, ..base.clone() };
        let mut trainer = Trainer::new(task_d.train_graph(), cfg).expect("valid config");
        let report = trainer.train();
        let emb = trainer.into_embeddings();
        let f1 = task_d.evaluate(&emb, EdgeOperator::WeightedL2).f1;
        let per_epoch = report.wall_time.as_secs_f64() / report.epoch_times.len().max(1) as f64;
        t3.row([d.to_string(), f4(f1), format!("{per_epoch:.2}")]);
    }
    println!("\nAblation 3: embedding dimension (dblp-like)\n\n{}", t3.render());
    t3.write_tsv(&args.out_file(&format!("ext_dim_{}.tsv", args.scale))).expect("tsv");
}
