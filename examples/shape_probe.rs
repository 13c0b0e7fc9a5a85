//! Bench-scale probe of the load-bearing shapes: Table 3 (N-body
//! injection), Table 2 subset (baseline s.d.), Figure 1 and the merge
//! ablation, with full-size workloads. Development tool.

use noiselab::core::experiments::{ablation, fig1, inject, Scale};

fn main() {
    let scale = Scale::bench();
    #[expect(
        clippy::disallowed_methods,
        reason = "host time only labels the printed output"
    )]
    let t0 = std::time::Instant::now();
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());

    if which == "t3" || which == "all" {
        let t3 = inject::run_table(&inject::table3_spec(), scale, false);
        println!("{}\n[{:.1}s]", t3.render(), t0.elapsed().as_secs_f64());
        for a in &t3.accuracy {
            println!(
                "accuracy {} {}: {:+.2}%",
                a.workload,
                a.config_label,
                a.error * 100.0
            );
        }
    }
    if which == "fig1" || which == "all" {
        let f1 = fig1::run(scale, false);
        println!("{}\n[{:.1}s]", f1.render(), t0.elapsed().as_secs_f64());
    }
    if which == "merge" || which == "all" {
        let a1 = ablation::merge_ablation(scale, false);
        println!("{}\n[{:.1}s]", a1.render(), t0.elapsed().as_secs_f64());
    }
    println!("total {:.1}s", t0.elapsed().as_secs_f64());
}
