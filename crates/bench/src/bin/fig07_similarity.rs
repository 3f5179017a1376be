//! Regenerates the paper artifact `fig07_similarity`, documented in
//! [`exion_bench::experiments::fig07_similarity`].

fn main() {
    print!("{}", exion_bench::experiments::fig07_similarity::run());
}
