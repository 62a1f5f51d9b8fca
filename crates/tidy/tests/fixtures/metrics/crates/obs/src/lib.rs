metric_table! {
    pub enum Counter {
        Alpha => "alpha_total",
        Delta => "delta_total",
    }

    pub enum Gauge {
        Bytes => "bytes",
    }
}
