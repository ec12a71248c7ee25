//! Table 4 — the 15 distinctive convolution layers of YOLO-v1, with
//! derived output sizes and FLOP counts.

use flextensor_bench::harness::{save_csv, Table};
use flextensor_ir::yolo::{YOLO_LAYERS, YOLO_V1_FULL};

fn main() {
    flextensor_bench::harness::declare_flags(&[]);
    println!("== Table 4: YOLO-v1 convolution layers ==\n");
    let mut t = Table::new(&["Name", "C", "K", "H/W", "k", "st", "out", "GFLOPs", "count"]);
    for l in &YOLO_LAYERS {
        let count = YOLO_V1_FULL
            .iter()
            .find(|(n, _)| *n == l.name)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        t.row(vec![
            l.name.to_string(),
            l.in_channels.to_string(),
            l.out_channels.to_string(),
            l.size.to_string(),
            l.kernel.to_string(),
            l.stride.to_string(),
            l.out_size().to_string(),
            format!("{:.2}", l.flops(1) as f64 / 1e9),
            count.to_string(),
        ]);
    }
    println!("{}", t.render());
    save_csv("table04", &t);
    let total: usize = YOLO_V1_FULL.iter().map(|(_, c)| c).sum();
    println!("\nfull network: {total} convolution layers");
}
