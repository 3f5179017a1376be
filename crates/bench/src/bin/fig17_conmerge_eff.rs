//! Regenerates the paper artifact `fig17_conmerge_eff`, documented in
//! [`exion_bench::experiments::fig17_conmerge_eff`].

fn main() {
    print!("{}", exion_bench::experiments::fig17_conmerge_eff::run());
}
