//! Regenerates the paper artifact `fig08_condensing`, documented in
//! [`exion_bench::experiments::fig08_condensing`].

fn main() {
    print!("{}", exion_bench::experiments::fig08_condensing::run());
}
