//! Declared by lib.rs, called by nothing outside its own unit tests:
//! `unreachable-module` must flag it.

pub fn miss_rate() -> u32 {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn zero() {
        assert_eq!(super::miss_rate(), 0);
    }
}
