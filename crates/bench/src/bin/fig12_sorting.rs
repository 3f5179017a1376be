//! Regenerates the paper artifact `fig12_sorting`, documented in
//! [`exion_bench::experiments::fig12_sorting`].

fn main() {
    print!("{}", exion_bench::experiments::fig12_sorting::run());
}
