//! Regenerates the paper artifact `fig19b_cambricon`, documented in
//! [`exion_bench::experiments::fig19b_cambricon`].

fn main() {
    print!("{}", exion_bench::experiments::fig19b_cambricon::run());
}
