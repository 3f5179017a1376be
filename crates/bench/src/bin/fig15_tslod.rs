//! Regenerates the paper artifact `fig15_tslod`, documented in
//! [`exion_bench::experiments::fig15_tslod`].

fn main() {
    print!("{}", exion_bench::experiments::fig15_tslod::run());
}
