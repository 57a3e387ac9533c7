//! Regenerates Table II: the hardware platform for the experiments.
use mwc_report::table::Table;
use mwc_soc::config::SocConfig;

pub fn run() {
    crate::header("Table II: Hardware platform for experiments");
    let soc = SocConfig::snapdragon_888();
    let mut t = Table::new(vec!["Component", "Configuration"]);
    t.row(vec!["Platform".into(), soc.name.clone()]);
    for c in &soc.clusters {
        t.row(vec![
            c.kind.name().into(),
            format!(
                "{}x {} @ up to {:.2} GHz, L1I {} KiB, L1D {} KiB, L2 {} KiB/core",
                c.cores,
                c.model,
                c.max_freq_mhz / 1000.0,
                c.l1i_kib,
                c.l1d_kib,
                c.l2_kib
            ),
        ]);
    }
    t.row(vec![
        "L3 (CPU cores)".into(),
        format!("{} MB", soc.l3.size_kib / 1024),
    ]);
    t.row(vec![
        "System-level cache".into(),
        format!("{} MB", soc.slc.size_kib / 1024),
    ]);
    if let Some(gpu) = &soc.gpu {
        t.row(vec![
            "GPU".into(),
            format!(
                "{} ({} shader cores @ up to {} MHz)",
                gpu.model, gpu.shader_cores, gpu.max_freq_mhz
            ),
        ]);
    }
    if let Some(aie) = &soc.aie {
        let codecs: Vec<&str> = aie.supported_codecs.iter().map(|c| c.name()).collect();
        t.row(vec![
            "AI Engine".into(),
            format!(
                "{} ({} TOPS; HW codecs: {})",
                aie.model,
                aie.peak_tops,
                codecs.join("/")
            ),
        ]);
    }
    t.row(vec![
        "Memory".into(),
        format!(
            "{:.0} GB {}",
            soc.memory.capacity_mib / 1024.0,
            soc.memory.technology
        ),
    ]);
    t.row(vec![
        "Storage".into(),
        format!(
            "{:.0} GB {}",
            soc.storage.capacity_gib, soc.storage.technology
        ),
    ]);
    t.row(vec![
        "Display".into(),
        format!(
            "{}x{} pixels @ {} Hz",
            soc.display.width, soc.display.height, soc.display.refresh_hz
        ),
    ]);
    print!("{}", t.render());
}
