//! Regenerates the paper artifact `fig06_ffn_reuse`, documented in
//! [`exion_bench::experiments::fig06_ffn_reuse`].

fn main() {
    print!("{}", exion_bench::experiments::fig06_ffn_reuse::run());
}
