//! Regenerates the paper artifact `tab1_accuracy`, documented in
//! [`exion_bench::experiments::tab1_accuracy`].

fn main() {
    print!("{}", exion_bench::experiments::tab1_accuracy::run());
}
