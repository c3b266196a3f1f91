//! Regenerates the paper's **Figure 8** (worst-case system performance):
//! total CAD View construction time versus result-set size (5K-40K rows),
//! decomposed into Compare Attribute selection, IUnit generation, and all
//! other steps. No optimizations: every attribute admitted (`|I| = 11`
//! including the pivot, 10 Compare Attributes), `l = 15`, `k = 6`,
//! `|V| = 5`, averaged over `SIMS` random subsamples per point.

use dbex_bench::{
    base_cars_table, five_make_view, print_row, simulations, timed_builds, warn_if_debug,
    worst_case_request,
};

fn main() {
    warn_if_debug();
    let sims = simulations();
    let table = base_cars_table();
    let population = five_make_view(&table);
    let request = worst_case_request();

    println!("Figure 8: worst-case CAD View build time vs result size");
    println!("(|I|=10 compare attrs, l=15, k=6, |V|=5, {sims} simulations/point)");
    println!(
        "(host: {} hardware threads, {} build thread(s), {} kernels)\n",
        dbex_par::hardware_threads(),
        dbex_par::resolve_threads(request.config.threads),
        dbex_stats::simd::dispatch().name()
    );
    let widths = [8, 14, 12, 11, 11];
    print_row(
        &["rows", "compare(ms)", "iunits(ms)", "others(ms)", "total(ms)"]
            .map(String::from),
        &widths,
    );
    for size in (5_000..=40_000).step_by(5_000) {
        let m = timed_builds(&population, size, &request, sims);
        print_row(
            &[
                format!("{size}"),
                format!("{:.1}", m.compare_ms),
                format!("{:.1}", m.iunit_ms),
                format!("{:.1}", m.others_ms),
                format!("{:.1}", m.total_ms()),
            ],
            &widths,
        );
    }
    println!(
        "\nPaper shape: time grows with result size; compare-attribute selection and\n\
         IUnit generation dominate; the 40K point is multi-hundred-ms to seconds\n\
         while ≤15K stays interactive."
    );
}
