//! Regenerates the paper artifact `fig09_merging`, documented in
//! [`exion_bench::experiments::fig09_merging`].

fn main() {
    print!("{}", exion_bench::experiments::fig09_merging::run());
}
