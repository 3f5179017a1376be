//! Regenerates the paper artifact `fig19a_latency`, documented in
//! [`exion_bench::experiments::fig19a_latency`].

fn main() {
    print!("{}", exion_bench::experiments::fig19a_latency::run());
}
