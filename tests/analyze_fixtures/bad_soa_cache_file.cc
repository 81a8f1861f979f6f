// Fixture: soa-field-write. A page-cache index write that bypasses
// PageRef::setCacheFile, leaving the file's index table and the
// page's reverse map out of step. Never compiled.
struct FakeRmap;

void
unindex(FakeRmap &r)
{
    r.cache_file = 0; // member write to the Rmap column's file field
}
