//! Fast end-to-end smoke of the experiment pipeline at reduced scale:
//! runs a reduced version of every table/figure and prints them.
//! Used during development; the full-scale versions live in
//! `crates/bench`.

use noiselab::core::experiments::{ablation, fig1, fig2, inject, table1, table6, table7, Scale};

fn main() {
    let scale = Scale::smoke();
    #[expect(
        clippy::disallowed_methods,
        reason = "host time only labels the printed output"
    )]
    let t0 = std::time::Instant::now();

    let t1 = table1::run(scale);
    println!("{}\n[{:.1}s]", t1.render(), t0.elapsed().as_secs_f64());

    let t3 = inject::run_table(&inject::table3_spec(), scale, true);
    println!("{}\n[{:.1}s]", t3.render(), t0.elapsed().as_secs_f64());

    let t4 = inject::run_table(&inject::table4_spec(), scale, true);
    println!("{}\n[{:.1}s]", t4.render(), t0.elapsed().as_secs_f64());

    let t5 = inject::run_table(&inject::table5_spec(), scale, true);
    println!("{}\n[{:.1}s]", t5.render(), t0.elapsed().as_secs_f64());

    let tables = vec![t3, t4, t5];
    let t6 = table6::Table6::aggregate(&tables);
    println!("{}\n[{:.1}s]", t6.render(), t0.elapsed().as_secs_f64());

    let t7 = table7::Table7::from_tables(&tables);
    println!("{}\n[{:.1}s]", t7.render(), t0.elapsed().as_secs_f64());

    let f1 = fig1::run(scale, true);
    println!("{}\n[{:.1}s]", f1.render(), t0.elapsed().as_secs_f64());

    let f2 = fig2::run(scale, true);
    println!("{}\n[{:.1}s]", f2.render(), t0.elapsed().as_secs_f64());

    let a1 = ablation::merge_ablation(scale, true);
    println!("{}\n[{:.1}s]", a1.render(), t0.elapsed().as_secs_f64());

    let a2 = ablation::memory_noise_ablation(scale, true);
    println!("{}\n[{:.1}s]", a2.render(), t0.elapsed().as_secs_f64());

    println!("total wall: {:.1}s", t0.elapsed().as_secs_f64());
}
