graph stream {
  node Person [count = 100000] {
    country: text = dictionary("countries");
    creationDate: date = date_between("2010-01-01", "2013-01-01");
    temporal { arrival = date_between("2010-01-01", "2013-01-01"); }
  }
  edge knows: Person -- Person [many_to_many] {
    structure = lfr(avg_degree = 10, max_degree = 30, mixing = 0.1);
    correlate country with homophily(0.8);
    creationDate: date = date_after(30) given (source.creationDate, target.creationDate);
    temporal {
      arrival = date_between("2010-06-01", "2013-01-01");
      lifetime = uniform(30, 365);
    }
  }
}
