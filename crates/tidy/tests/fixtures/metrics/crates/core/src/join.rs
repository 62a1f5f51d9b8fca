pub fn record() {
    emit(Counter::Alpha);
    emit(Counter::Gamma);
    emit(Counter::Delta);
    measure(Gauge::Bytes);
}
