pub fn cold(v: Option<u32>) -> u32 {
    v.unwrap()
}
