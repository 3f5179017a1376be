//! Regenerates the paper artifact `tab3_power_area`, documented in
//! [`exion_bench::experiments::tab3_power_area`].

fn main() {
    print!("{}", exion_bench::experiments::tab3_power_area::run());
}
