// gcc -O0 exit status: 84
// `L` makes a literal `long`, `u` makes it `unsigned int`.
int main() { return sizeof(3L) * 10 + sizeof(3u); }
