//! Regenerates the paper artifact `fig18_energy`, documented in
//! [`exion_bench::experiments::fig18_energy`].

fn main() {
    print!("{}", exion_bench::experiments::fig18_energy::run());
}
