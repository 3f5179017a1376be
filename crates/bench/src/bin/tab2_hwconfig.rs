//! Regenerates the paper artifact `tab2_hwconfig`, documented in
//! [`exion_bench::experiments::tab2_hwconfig`].

fn main() {
    print!("{}", exion_bench::experiments::tab2_hwconfig::run());
}
