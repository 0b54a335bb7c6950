//! Extension experiment: node classification on a temporal stochastic
//! block model (the paper's intro motivates this task; §V evaluates only
//! reconstruction and link prediction).
//!
//! Communities are both structurally and *temporally* coherent (each has
//! an activity era), so temporal methods have signal the static ones
//! cannot see.
//!
//! ```text
//! cargo run --release -p ehna-bench --bin ext_nodeclass -- --scale tiny
//! ```

use ehna_bench::methods::train;
use ehna_bench::table::{f4, Table};
use ehna_bench::{Args, PAPER_METHOD_ORDER};
use ehna_datasets::CommunityConfig;
use ehna_eval::nodeclass::{evaluate, NodeClassificationConfig};

fn main() {
    let args = Args::from_env();
    let scale_factor = match args.scale {
        ehna_datasets::Scale::Tiny => 1,
        ehna_datasets::Scale::Small => 4,
        ehna_datasets::Scale::Medium => 16,
    };
    let cfg = CommunityConfig {
        num_nodes: 400 * scale_factor,
        num_events: 4_000 * scale_factor,
        ..Default::default()
    };
    let (graph, labels) = cfg.generate(args.seed);
    println!(
        "temporal SBM: {} nodes, {} edges, {} communities\n",
        graph.num_nodes(),
        graph.num_edges(),
        cfg.num_communities
    );

    let mut table = Table::new(["Method", "Accuracy", "Macro-F1"]);
    let nc_cfg = NodeClassificationConfig { seed: args.seed, ..Default::default() };
    for m in PAPER_METHOD_ORDER {
        eprintln!("[nodeclass] {} ...", m.name());
        let emb = train(m, &graph, args.dim, args.seed, args.budget);
        let r = evaluate(&emb, &labels, &nc_cfg);
        table.row([m.name().to_string(), f4(r.accuracy), f4(r.macro_f1)]);
    }
    println!("Node classification (extension experiment):\n\n{}", table.render());
    let path = args.out_file(&format!("ext_nodeclass_{}.tsv", args.scale));
    table.write_tsv(&path).expect("write tsv");
    println!("wrote {}", path.display());
}
