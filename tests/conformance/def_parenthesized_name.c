// gcc -O0 exit status: 42
// A definition whose name is parenthesized.
int (twice)(int x) { return x + x; }
int main() { return twice(21); }
