// gcc -O0 exit status: 41
// `c ? a : b` takes the usual arithmetic conversions of both branches.
int main() { char c; c = 1; return sizeof(1 ? c : 2) * 10 + sizeof(c); }
