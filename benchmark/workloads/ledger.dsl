graph ledger {
  node Account [count = 100000] {
    country: text = dictionary("countries");
    balance: double = normal(1000.0, 250.0);
    opened: date = date_between("2012-01-01", "2020-01-01");
  }
  edge transfers: Account -> Account [many_to_many] {
    structure = rmat(edge_factor = 16);
    correlate country with homophily(0.8);
    amount: long = uniform(1, 10000);
  }
  edge refers: Account -> Account [many_to_many] {
    structure = barabasi_albert(m = 8);
  }
}
