// Fixture: loose-hotness-key. Retired loose hotness keys in
// scenario literals (the test lexes this under a virtual tests/
// path). Never compiled.
void applyScenarioParam(int &s, const char *k, const char *v);

void
configure(int &s)
{
    applyScenarioParam(s, "interval", "75");
    applyScenarioParam(s, "pages_per_scan", "512");
    const char *axis = "hot_threshold=90";
    const char *doc = "{\"adaptive\": true}";
    (void)axis;
    (void)doc;
}
