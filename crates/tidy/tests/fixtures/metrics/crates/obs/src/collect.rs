// Golden schema test fixture: alpha and bytes are pinned; the delta key
// is deliberately absent (the lint scans this file's full text, comments
// included).
pub const GOLDEN: &str = r#"{"alpha_total": 0, "bytes": 0}"#;
