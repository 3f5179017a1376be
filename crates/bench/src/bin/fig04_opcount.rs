//! Regenerates the paper artifact `fig04_opcount`, documented in
//! [`exion_bench::experiments::fig04_opcount`].

fn main() {
    print!("{}", exion_bench::experiments::fig04_opcount::run());
}
