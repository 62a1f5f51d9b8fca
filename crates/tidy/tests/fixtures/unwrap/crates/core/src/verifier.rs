pub fn decide(v: Option<bool>) -> bool {
    v.expect("decided")
}
